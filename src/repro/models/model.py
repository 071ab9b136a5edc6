"""Model lattice and configuration.

A *model* names a coherent set of objects (e.g. "the GKBMS", "the
meeting world model").  Models form a lattice: a model may include
sub-models, and different models may share sub-models.  Each model is
backed by a workspace of the partitioned proposition store, so
*activating* a configuration makes exactly its objects visible to the
proposition processor — the paper's "activation of the corresponding
nodes in the lattice".

Only a main-memory version existed in the prototype ("to date, only a
simple main memory version of this component has been implemented"),
which is also what we provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.errors import ModelError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_tracer
from repro.propositions.processor import PropositionProcessor
from repro.propositions.store import WorkspaceStore


@dataclass
class Model:
    """A node in the model lattice."""

    name: str
    submodels: List[str] = field(default_factory=list)
    description: str = ""

    def __repr__(self) -> str:
        return f"Model({self.name!r}, submodels={self.submodels})"


class ModelBase:
    """Manages the model lattice over a workspace-partitioned base.

    Usage::

        base = ModelBase()
        base.define_model("world")
        base.define_model("system", submodels=["world"])
        with base.in_model("world"):
            base.processor.tell_individual("Meeting", ...)
        base.configure(["system"])     # world activated transitively
    """

    def __init__(self, processor: Optional[PropositionProcessor] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if processor is None:
            processor = PropositionProcessor(
                store=WorkspaceStore(registry=registry), registry=registry
            )
        store = processor.store
        if not isinstance(store, WorkspaceStore):
            raise ModelError("ModelBase requires a WorkspaceStore-backed processor")
        self.processor = processor
        self.store: WorkspaceStore = store
        self.registry = registry if registry is not None else processor.registry
        self._metrics = self.registry.namespace("models")
        self._c_configurations = self._metrics.counter("configurations")
        self._c_definitions = self._metrics.counter("definitions")
        self._models: Dict[str, Model] = {}

    # ------------------------------------------------------------------
    # Lattice construction
    # ------------------------------------------------------------------

    def define_model(self, name: str, submodels: Iterable[str] = (),
                     description: str = "") -> Model:
        """Add a lattice node backed by a workspace."""
        if name in self._models:
            raise ModelError(f"model {name!r} already defined")
        submodels = list(submodels)
        for sub in submodels:
            if sub not in self._models:
                raise ModelError(f"unknown submodel {sub!r}")
        model = Model(name, submodels, description)
        self._models[name] = model
        self.store.add_workspace(name, active=True)
        self._c_definitions.inc()
        return model

    def add_submodel(self, name: str, submodel: str) -> None:
        """Nest an existing model (cycle-checked)."""
        model = self.get(name)
        if submodel not in self._models:
            raise ModelError(f"unknown submodel {submodel!r}")
        if name in self.closure([submodel]):
            raise ModelError(
                f"adding {submodel!r} under {name!r} would create a cycle"
            )
        if submodel not in model.submodels:
            model.submodels.append(submodel)

    def get(self, name: str) -> Model:
        """Look a model up by name."""
        try:
            return self._models[name]
        except KeyError:
            raise ModelError(f"unknown model {name!r}") from None

    def models(self) -> List[str]:
        """All model names."""
        return list(self._models)

    def closure(self, names: Iterable[str]) -> Set[str]:
        """The given models plus all transitive submodels."""
        result: Set[str] = set()
        frontier = list(names)
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            frontier.extend(self.get(current).submodels)
        return result

    def sharing(self, left: str, right: str) -> Set[str]:
        """Sub-models shared between two models."""
        return self.closure([left]) & self.closure([right])

    # ------------------------------------------------------------------
    # Population and configuration
    # ------------------------------------------------------------------

    def in_model(self, name: str) -> "_ModelScope":
        """Context manager: new propositions go into model ``name``."""
        self.get(name)
        return _ModelScope(self, name)

    def objects_of(self, name: str, transitive: bool = True) -> Set[str]:
        """pids stored in a model (optionally plus submodels)."""
        names = self.closure([name]) if transitive else {name}
        pids: Set[str] = set()
        for prop in self.store:
            try:
                space = self.store.workspace_of(prop.pid)
            except Exception:
                continue
            if space in names:
                pids.add(prop.pid)
        return pids

    def configure(self, names: Iterable[str]) -> Set[str]:
        """Activate exactly the given models (plus transitive submodels
        and the system kernel); returns the active set."""
        names = list(names)
        with get_tracer().span("models.configure",
                               requested=len(names)) as span:
            active = self.closure(names)
            for model in self._models:
                if model in active:
                    self.store.activate(model)
                else:
                    self.store.deactivate(model)
            self._c_configurations.inc()
            span.set(active=len(active), defined=len(self._models))
        return active

    def activate_all(self) -> None:
        """Make every model visible."""
        for model in self._models:
            self.store.activate(model)

    def active_models(self) -> List[str]:
        """Currently visible models."""
        return [
            m for m in self._models
            if m in self.store.workspaces() and self._is_active(m)
        ]

    def _is_active(self, name: str) -> bool:
        return self.store._active.get(name, False)


class _ModelScope:
    """Directs new propositions into one model's workspace."""

    def __init__(self, base: ModelBase, name: str) -> None:
        self._base = base
        self._name = name
        self._previous: Optional[str] = None

    def __enter__(self) -> "_ModelScope":
        self._previous = self._base.store._current
        self._base.store.set_current(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._base.store.set_current(self._previous or WorkspaceStore.DEFAULT)
