"""Golden answers: seeded planning requests must reproduce the committed
``tests/golden/answers.json`` bit for bit.

Makespans, winner fingerprints, the scheduler's chosen order, prune
verdicts, OOM sets and the compiled graphs all stay identical through
every refactor that does not change an answer on purpose.  A change
that does regenerates the file with ``tests/golden/regen.py`` and says
why in CHANGES.md.
"""

from tests.golden.regen import compute_answers, diff, key_counts, load_answers


def test_golden_answers_reproduce_exactly():
    problems = diff(load_answers(), compute_answers())
    assert not problems, "\n".join(problems)


def test_diff_reports_one_line_per_differing_key():
    committed = {"a": {"makespan": "0x1p+0", "winner": "aa",
                       "g": {"winner": "bb", "best": "0x1p+1"}},
                 "b": {"oom": []}}
    now = {"a": {"makespan": "0x1p+0", "winner": "cc",
                 "g": {"winner": "dd", "best": "0x1p+1"}},
           "c": {"oom": []}}
    assert diff(committed, now) == [
        "a g.winner: 'bb' -> 'dd'",
        "a winner: 'aa' -> 'cc'",
        "b oom: [] -> <absent>",
        "c oom: <absent> -> []",
    ]
    assert key_counts(committed, now) == {"winner": 2, "oom": 2}
