"""Aggregation rules for group-relative RL objectives.

Library surface: rollout groups and advantage normalization (``groups``),
the clipped token term and the four aggregation objectives with analytic
gradients (``aggregate``), sign-split bias diagnostics (``decompose``), a
deterministic tabular-policy training simulator (``sim``), JSONL/CSV
interchange (``rollout_io``), and the seeded identity suite (``verify``).
The package exports exactly the names each module lists in its ``__all__``.
"""

# The lists are read through aliases: ``from .decompose import *`` rebinds
# the package attribute ``decompose`` from the module to the function.
from . import aggregate as _aggregate
from . import decompose as _decompose
from . import groups as _groups
from . import rollout_io as _rollout_io
from . import sim as _sim
from . import verify as _verify
from .aggregate import *  # noqa: F401,F403
from .decompose import *  # noqa: F401,F403
from .groups import *  # noqa: F401,F403
from .rollout_io import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.3.0"

__all__ = [
    *_aggregate.__all__,
    *_decompose.__all__,
    *_groups.__all__,
    *_rollout_io.__all__,
    *_sim.__all__,
    *_verify.__all__,
    "__version__",
]
