"""Always-on counters that are folds over journal events.

A service fact is recorded once, as the journal event that reports it.
The plain counters (``ServiceStats``, ``FleetStats``) and the session
counters that mirror them are a fold over those events, so neither can
disagree with the journal, and the same fold replays a saved journal.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from . import emit_count

#: one counted fact: (stat field, mirroring session counter or None,
#: the counter's labels)
Fact = Tuple[str, Optional[str], Optional[Dict[str, str]]]


class EventTally:
    """Counters folded from journal events under the tally's own lock
    (emitters journal while holding their own locks, or none).

    A subclass names its folded counters (``FIELDS``), every key its
    :meth:`snapshot` reports (``KEYS``) and the facts one event counts
    (:meth:`facts`).
    """

    FIELDS: Tuple[str, ...] = ()
    KEYS: Tuple[str, ...] = ()
    HELP = ""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self.FIELDS:
            setattr(self, name, 0)

    @staticmethod
    def facts(event: str, attrs: Mapping[str, Any]) -> Sequence[Fact]:
        raise NotImplementedError

    def fold(self, event: str, attrs: Mapping[str, Any]) -> Sequence[Fact]:
        """Count one event, live or replayed; returns its facts."""
        facts = self.facts(event, attrs)
        if facts:
            with self._lock:
                for name, _, _ in facts:
                    setattr(self, name, getattr(self, name) + 1)
        return facts

    def account(self, event: str, attrs: Mapping[str, Any]) -> None:
        """Fold one live event and increment its session counters."""
        for _, metric, labels in self.fold(event, attrs):
            if metric is not None:
                emit_count(metric, labels=labels, help=self.HELP)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.KEYS}
