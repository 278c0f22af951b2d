"""Committed golden answers of seeded planning requests (see regen.py)."""
