"""IBIS-style argumentation structures on design decisions.

Issues raise design questions ("how should the Papers hierarchy be
mapped?"); positions answer them (one per candidate decision class or
parameterisation); arguments support or object to positions.  The
structure is reflected into the knowledge base (classes ``Issue``,
``Position``, ``Argument``) so browsing and explanation reach it, and a
position can be *resolved* by pointing at the decision instance that
settled it — closing the loop between group discussion and the
documented history.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import GKBMSError


@dataclass
class Argument:
    """A supporting or objecting argument on a position."""
    aid: str
    position: str
    author: str
    text: str
    supports: bool  # False: objects to


@dataclass
class Position:
    """A candidate answer to an issue, optionally tied to a decision class and resolved by a decision instance."""
    pid: str
    issue: str
    author: str
    text: str
    decision_class: Optional[str] = None
    resolved_by: Optional[str] = None  # decision instance id

    @property
    def is_resolved(self) -> bool:
        """Has a documented decision settled it?"""
        return self.resolved_by is not None


@dataclass
class Issue:
    """A design question raised against the evolving system."""
    iid: str
    author: str
    text: str
    about: Optional[str] = None  # design object the issue concerns
    positions: List[str] = field(default_factory=list)
    status: str = "open"  # open | settled


class ArgumentationBase:
    """Issues/positions/arguments, reflected into the knowledge base."""

    def __init__(self, gkbms) -> None:
        self.gkbms = gkbms
        self.issues: Dict[str, Issue] = {}
        self.positions: Dict[str, Position] = {}
        self.arguments: Dict[str, Argument] = {}
        self._counter = itertools.count(1)
        proc = gkbms.processor
        for cls in ("Issue", "Position", "Argument"):
            if not proc.exists(cls):
                proc.define_class(cls, level="SimpleClass")

    # ------------------------------------------------------------------

    def raise_issue(self, author: str, text: str,
                    about: Optional[str] = None) -> Issue:
        """Open a design question (reflected into the base)."""
        iid = f"issue{next(self._counter)}"
        issue = Issue(iid, author, text, about=about)
        self.issues[iid] = issue
        proc = self.gkbms.processor
        proc.tell_individual(iid, in_class="Issue")
        if about is not None and proc.exists(about):
            proc.tell_link(iid, "about", about)
        return issue

    def take_position(self, issue: str, author: str, text: str,
                      decision_class: Optional[str] = None) -> Position:
        """Answer an issue, optionally naming a decision class."""
        if issue not in self.issues:
            raise GKBMSError(f"unknown issue {issue!r}")
        pid = f"pos{next(self._counter)}"
        position = Position(pid, issue, author, text,
                            decision_class=decision_class)
        self.positions[pid] = position
        self.issues[issue].positions.append(pid)
        proc = self.gkbms.processor
        proc.tell_individual(pid, in_class="Position")
        proc.tell_link(pid, "responds_to", issue)
        if decision_class is not None and proc.exists(decision_class):
            proc.tell_link(pid, "proposes", decision_class)
        return position

    def argue(self, position: str, author: str, text: str,
              supports: bool = True) -> Argument:
        """Support or object to a position."""
        if position not in self.positions:
            raise GKBMSError(f"unknown position {position!r}")
        aid = f"arg{next(self._counter)}"
        argument = Argument(aid, position, author, text, supports)
        self.arguments[aid] = argument
        proc = self.gkbms.processor
        proc.tell_individual(aid, in_class="Argument")
        label = "supports" if supports else "objects_to"
        proc.tell_link(aid, label, position)
        return argument

    # ------------------------------------------------------------------

    def score(self, position: str) -> int:
        """Naive argument balance: supports minus objections."""
        return sum(
            1 if a.supports else -1
            for a in self.arguments.values()
            if a.position == position
        )

    def preferred_position(self, issue: str) -> Optional[Position]:
        """Highest argument balance (ties by id)."""
        candidates = [self.positions[p] for p in self.issues[issue].positions]
        if not candidates:
            return None
        return max(candidates, key=lambda p: (self.score(p.pid), p.pid))

    def resolve(self, position: str, decision_id: str) -> None:
        """Record that a documented decision settled the position's
        issue (and thereby the issue itself)."""
        pos = self.positions.get(position)
        if pos is None:
            raise GKBMSError(f"unknown position {position!r}")
        if decision_id not in self.gkbms.ledger.by_did:
            raise GKBMSError(f"unknown decision {decision_id!r}")
        pos.resolved_by = decision_id
        self.issues[pos.issue].status = "settled"
        proc = self.gkbms.processor
        proc.tell_link(position, "resolved_by", decision_id)

    def open_issues(self) -> List[Issue]:
        """Issues still lacking a settling decision."""
        return [i for i in self.issues.values() if i.status == "open"]

    def sync_with_history(self) -> List[str]:
        """Reopen issues whose resolving decision was backtracked.

        This is the argumentation-on-derivation-decisions coupling of
        section 3.3.3: a position justified by a decision loses its
        resolution when the decision falls, and the issue returns to
        the open agenda.  Returns the reopened issue ids.
        """
        reopened: List[str] = []
        for position in self.positions.values():
            if position.resolved_by is None:
                continue
            record = self.gkbms.ledger.by_did.get(position.resolved_by)
            if record is not None and not record.is_active:
                position.resolved_by = None
                issue = self.issues[position.issue]
                if issue.status != "open":
                    issue.status = "open"
                    reopened.append(issue.iid)
        return reopened

    def render(self, issue: str) -> str:
        """Textual IBIS rendering of one issue thread."""
        iss = self.issues.get(issue)
        if iss is None:
            raise GKBMSError(f"unknown issue {issue!r}")
        lines = [f"ISSUE {iss.iid} [{iss.status}] ({iss.author}): {iss.text}"]
        for pid in iss.positions:
            pos = self.positions[pid]
            resolved = f" -> resolved by {pos.resolved_by}" if pos.resolved_by else ""
            lines.append(
                f"  POSITION {pid} ({pos.author}, score "
                f"{self.score(pid):+d}): {pos.text}{resolved}"
            )
            for arg in self.arguments.values():
                if arg.position == pid:
                    marker = "+" if arg.supports else "-"
                    lines.append(
                        f"    {marker} {arg.aid} ({arg.author}): {arg.text}"
                    )
        return "\n".join(lines)
