"""An interactive shell for the GKBMS (the "integrative tool server").

The paper's GKBMS fronts an interactive environment: browse objects,
focus, pick decisions from menus, inspect code frames and dependency
graphs, explain, backtrack.  This module provides that loop for a
terminal, and — equally important for testing and scripting — a pure
function :func:`run_commands` that executes a command list against a
GKBMS and returns the transcript.

Commands::

    design <file-or-inline TaxisDL ...>   load a conceptual design
    objects [level]                       list design objects
    menu <object>                         applicable decisions + tools
    map <decision-class> <role>=<obj> [tool]
    frames                                current DBPL code frames
    deps [--all]                          dependency graph (ASCII)
    explain <object|decision>             design explanation
    history                               decision timeline
    versions <object>                     version list
    configure [level]                     derive a configuration
    backtrack <decision>                  selective backtracking
    obligations / sign <oid> <name>       verification obligations
    save <path> / load <path>             persistence
    connect <host> <port> / disconnect    client mode (remote GKBMS)
    rtell / rask / rquery / rinstances    remote ops over the connection
    help / quit
"""

from __future__ import annotations

import shlex
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.gkbms import GKBMS
from repro.obs.logging import StreamSink, log, set_sink


class GKBMSShell:
    """Command interpreter over one GKBMS."""

    def __init__(self, gkbms: Optional[GKBMS] = None) -> None:
        if gkbms is None:
            gkbms = GKBMS()
            gkbms.register_standard_library()
        self.gkbms = gkbms
        self.done = False
        #: Remote service connection (client mode); any object with the
        #: :class:`repro.server.client._BaseClient` API works, so tests
        #: plug a LocalClient in where the REPL would open a TCPClient.
        self.client = None
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "design": self._cmd_design,
            "objects": self._cmd_objects,
            "menu": self._cmd_menu,
            "map": self._cmd_map,
            "frames": self._cmd_frames,
            "deps": self._cmd_deps,
            "explain": self._cmd_explain,
            "history": self._cmd_history,
            "versions": self._cmd_versions,
            "configure": self._cmd_configure,
            "backtrack": self._cmd_backtrack,
            "obligations": self._cmd_obligations,
            "sign": self._cmd_sign,
            "save": self._cmd_save,
            "load": self._cmd_load,
            "connect": self._cmd_connect,
            "disconnect": self._cmd_disconnect,
            "rtell": self._cmd_rtell,
            "rask": self._cmd_rask,
            "rquery": self._cmd_rquery,
            "rinstances": self._cmd_rinstances,
            "help": self._cmd_help,
            "quit": self._cmd_quit,
        }

    # ------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; errors become messages, not crashes
        (the 'improved error handling and recovery' of §3.3.1)."""
        line = line.strip()
        if not line or line.startswith("#"):
            return ""
        try:
            parts = shlex.split(line)
        except ValueError as exc:
            return f"error: {exc}"
        command, args = parts[0], parts[1:]
        handler = self._commands.get(command)
        if handler is None:
            return f"error: unknown command {command!r} (try 'help')"
        try:
            return handler(args)
        except Exception as exc:  # recover, report, keep the session
            return f"error: {exc}"

    # ------------------------------------------------------------------

    def _cmd_design(self, args: List[str]) -> str:
        source = " ".join(args)
        try:
            with open(source) as handle:
                source = handle.read()
        except OSError:
            source = source.replace(";", "\n")
        if self.gkbms.design.classes:
            added = self.gkbms.extend_design(source)
            return f"extended design: {', '.join(added)}"
        self.gkbms.import_design(source)
        return f"design loaded: {', '.join(self.gkbms.design.classes)}"

    def _cmd_objects(self, args: List[str]) -> str:
        nav = self.gkbms.navigator()
        levels = [args[0]] if args else nav.levels()
        lines = []
        for level in levels:
            lines.append(f"{level}: {', '.join(nav.status_view(level)) or '-'}")
        return "\n".join(lines)

    def _cmd_menu(self, args: List[str]) -> str:
        if not args:
            return "usage: menu <object>"
        matches = self.gkbms.decisions.applicable_decisions(args[0])
        if not matches:
            return f"no applicable decisions for {args[0]}"
        lines = [f"menu for {args[0]}:"]
        for dc, roles, tools in matches:
            lines.append(f"  {dc.name:<20} roles={roles} tools={tools}")
        return "\n".join(lines)

    def _cmd_map(self, args: List[str]) -> str:
        if len(args) < 2:
            return "usage: map <decision-class> <role>=<object> [tool]"
        decision_class = args[0]
        inputs = {}
        tool = None
        for arg in args[1:]:
            if "=" in arg:
                role, value = arg.split("=", 1)
                inputs[role] = value
            else:
                tool = arg
        if tool is None:
            dc = self.gkbms.decisions.get(decision_class)
            tool = dc.tools[0] if dc.tools else None
        record = self.gkbms.execute(decision_class, inputs, tool=tool)
        return (
            f"executed {record.did}: {decision_class} by {record.tool} "
            f"-> {record.output_roles}"
        )

    def _cmd_frames(self, args: List[str]) -> str:
        return self.gkbms.code_frames()

    def _cmd_deps(self, args: List[str]) -> str:
        include_retracted = "--all" in args
        return self.gkbms.dependency_graph(include_retracted).to_ascii()

    def _cmd_explain(self, args: List[str]) -> str:
        if not args:
            return "usage: explain <object|decision>"
        name = args[0]
        explainer = self.gkbms.explainer()
        if name in self.gkbms.ledger.by_did:
            return explainer.explain_decision(name)
        return explainer.explain_object(name)

    def _cmd_history(self, args: List[str]) -> str:
        events = self.gkbms.navigator().timeline()
        return "\n".join(repr(event) for event in events) or "(empty)"

    def _cmd_versions(self, args: List[str]) -> str:
        if not args:
            return "usage: versions <object>"
        nodes = self.gkbms.versions().versions_of(args[0])
        return "\n".join(
            f"{node.name:<24} t{node.tick} by {node.decision} "
            f"[{'ACTIVE' if node.active else 'inactive'}]"
            for node in nodes
        )

    def _cmd_configure(self, args: List[str]) -> str:
        level = args[0] if args else "implementation"
        config = self.gkbms.versions().configure(level)
        lines = [repr(config)]
        lines.append("objects: " + ", ".join(config.objects))
        if config.missing:
            lines.append("missing: " + ", ".join(config.missing))
        lines.extend(config.issues)
        return "\n".join(lines)

    def _cmd_backtrack(self, args: List[str]) -> str:
        if not args:
            return "usage: backtrack <decision-id>"
        report = self.gkbms.backtracker.retract(args[0])
        return (
            f"retracted {report.retracted_decisions}; "
            f"{len(report.retracted_objects)} proposition(s) removed"
        )

    def _cmd_obligations(self, args: List[str]) -> str:
        open_obligations = self.gkbms.decisions.open_obligations()
        if not open_obligations:
            return "no open obligations"
        return "\n".join(
            f"{o.oid}: {o.name} (decision {o.decision_id})"
            for o in open_obligations
        )

    def _cmd_sign(self, args: List[str]) -> str:
        if len(args) < 2:
            return "usage: sign <oid> <signer>"
        obligation = self.gkbms.decisions.sign(args[0], args[1])
        return f"{obligation.oid} signed by {obligation.signer}"

    def _cmd_save(self, args: List[str]) -> str:
        if not args:
            return "usage: save <path>"
        from repro.core.persistence import save_to_file

        save_to_file(self.gkbms, args[0])
        return f"saved to {args[0]}"

    def _cmd_load(self, args: List[str]) -> str:
        if not args:
            return "usage: load <path>"
        from repro.core.persistence import load_from_file

        self.gkbms = load_from_file(args[0])
        return f"loaded from {args[0]} (clock t{self.gkbms.clock})"

    # -- client mode (remote GKBMS service) ----------------------------

    def _remote(self):
        if self.client is None:
            raise RuntimeError("not connected (use 'connect <host> <port>')")
        return self.client

    def _cmd_connect(self, args: List[str]) -> str:
        if self.client is not None:
            return "error: already connected (use 'disconnect' first)"
        from repro.server.client import TCPClient

        host = args[0] if args else "127.0.0.1"
        port = int(args[1]) if len(args) > 1 else 8731
        self.client = TCPClient(host, port)
        return f"connected to {host}:{port} as session {self.client.session}"

    def _cmd_disconnect(self, args: List[str]) -> str:
        if self.client is None:
            return "not connected"
        session = self.client.session
        try:
            self.client.close()
        finally:
            self.client = None
        return f"disconnected (session {session})"

    def _cmd_rtell(self, args: List[str]) -> str:
        source = " ".join(args)
        if not source:
            return "usage: rtell <TELL ... END>"
        result = self._remote().tell(source)
        if "staged" in result:
            return f"staged ({result['staged']} op(s) pending)"
        return (f"committed seq {result.get('commit_seq')}: "
                f"{result.get('created', 0)} proposition(s)")

    def _cmd_rask(self, args: List[str]) -> str:
        assertion = " ".join(args)
        if not assertion:
            return "usage: rask <assertion>"
        return "true" if self._remote().ask(assertion) else "false"

    def _cmd_rquery(self, args: List[str]) -> str:
        literal = " ".join(args)
        if not literal:
            return "usage: rquery <literal>"
        answers = self._remote().query(literal)
        if not answers:
            return "(no answers)"
        return "\n".join(", ".join(str(v) for v in row) for row in answers)

    def _cmd_rinstances(self, args: List[str]) -> str:
        if not args:
            return "usage: rinstances <class>"
        instances = self._remote().instances(args[0])
        return ", ".join(instances) or "(none)"

    def _cmd_help(self, args: List[str]) -> str:
        return "commands: " + ", ".join(sorted(self._commands))

    def _cmd_quit(self, args: List[str]) -> str:
        self.done = True
        if self.client is not None:
            self._cmd_disconnect([])
        return "bye"


def run_commands(lines: Iterable[str],
                 gkbms: Optional[GKBMS] = None) -> List[str]:
    """Execute a command script; returns one output string per command."""
    shell = GKBMSShell(gkbms)
    outputs = []
    for line in lines:
        outputs.append(shell.execute(line))
        if shell.done:
            break
    return outputs


def main() -> None:  # pragma: no cover - interactive entry point
    """Interactive read-eval-print loop over one GKBMS session.

    The REPL is an application, so it installs a stream sink for its
    own output; importing this module emits nothing (the
    :mod:`repro.obs.logging` process default is silence)."""
    previous = set_sink(StreamSink())
    try:
        shell = GKBMSShell()
        log("info", "GKBMS shell — 'help' lists commands, 'quit' exits.",
            logger="repro.shell")
        while not shell.done:
            try:
                line = input("gkbms> ")
            except EOFError:
                break
            output = shell.execute(line)
            if output:
                log("info", output, logger="repro.shell")
    finally:
        set_sink(previous)


if __name__ == "__main__":  # pragma: no cover
    main()
