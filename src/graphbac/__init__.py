"""Static and dynamic taint analysis for broken access control in graph APIs.

The package models every API call as a graph-transformation rule over a typed
graph.  From the rules it derives, statically, which call pairs can pass data
(`dependency`), narrows them to security-relevant flows over tainted types
(`taint`), plans a minimal role-based test suite covering every flow
(`planner`), and executes that suite against a live GraphQL endpoint
(`runner`) — with a faithful in-process endpoint to test against
(`mockserver`) and a brute-force enumeration oracle to keep the static
analysis honest (`oracle`).  The `graphbac` command line ties the stages
together over a project directory; see the individual modules for the
library surface.
"""

from graphbac.core import (
    Edge,
    EdgeType,
    GraphError,
    InstanceGraph,
    Morphism,
    TypeGraph,
    enumerate_matches,
)
from graphbac.dependency import dependency_reasons
from graphbac.rules import Rule, apply, apply_inverse

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "EdgeType",
    "GraphError",
    "InstanceGraph",
    "Morphism",
    "Rule",
    "TypeGraph",
    "apply",
    "apply_inverse",
    "dependency_reasons",
    "enumerate_matches",
    "__version__",
]
