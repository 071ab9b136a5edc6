"""The GKBMS: decision-based documentation of system evolution (S11-S20).

This package is the paper's primary contribution: the Global Knowledge
Base Management System that "views the software development and
maintenance process as a history of tool-supported decisions" (section
1, point 4).  It is implemented *as a model in ConceptBase* (section
3.2), i.e. everything below builds exclusively on the kernel packages.

Layout:

- :mod:`repro.core.metamodel` — the conceptual process model: the
  metaclasses ``DesignObject`` / ``DesignDecision`` / ``DesignTool``
  and the ``FROM`` / ``TO`` / ``BY`` / ``PART`` attribute metaclasses
  (figs 2-5, 2-6, 3-3);
- :mod:`repro.core.tools` — design tool specifications with guarantees;
- :mod:`repro.core.decisions` — decision classes, applicability
  matching, tool-aided execution, decision instances and proof
  obligations;
- :mod:`repro.core.dependency` — dependency graphs with zooming
  (figs 2-2 to 2-4);
- :mod:`repro.core.mapping` — the TaxisDL-to-DBPL mapping assistants:
  distribute, move-down, normalisation, key substitution (section 2.1);
- :mod:`repro.core.backtracking` — selective backtracking;
- :mod:`repro.core.replay` — decision replay / re-applicability;
- :mod:`repro.core.versioning` — decision-based versions and
  configurations (section 3.3.2, fig 3-4);
- :mod:`repro.core.navigation` — status / process / temporal browsing
  (section 3.3.1);
- :mod:`repro.core.rms` — reason maintenance (JTMS, ATMS) and its
  integration with GKBMS abstraction (section 3.3.3);
- :mod:`repro.core.group` — argumentation and multicriteria choice
  (section 3.3.3);
- :mod:`repro.core.explanation` — the design explanation facility;
- :mod:`repro.core.gkbms` — the facade wiring it all together.
"""

from repro.core.gkbms import GKBMS
from repro.core.decisions import DecisionClass, Obligation
from repro.core.tools import ToolSpec
from repro.core.metamodel import install_gkbms_metamodel

__all__ = [
    "GKBMS",
    "DecisionClass",
    "Obligation",
    "ToolSpec",
    "install_gkbms_metamodel",
]
