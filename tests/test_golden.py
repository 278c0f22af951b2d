"""Golden answers: seeded planning requests must reproduce the committed
``tests/golden/answers.json`` bit for bit.

Makespans, winner fingerprints, the scheduler's chosen order, prune
verdicts, OOM sets and the compiled graphs all stay identical through
every refactor that does not change an answer on purpose.  A change
that does regenerates the file with ``tests/golden/regen.py`` and says
why in CHANGES.md.
"""

from tests.golden.regen import compute_answers, diff, load_answers


def test_golden_answers_reproduce_exactly():
    problems = diff(load_answers(), compute_answers())
    assert not problems, "\n".join(problems)
