"""Built-in checkers; importing this package populates the registry.

Each module registers one rule via :func:`repro.analysis.core.register`:

========================== ==================================================
rule                        guards
========================== ==================================================
``unordered-iteration``     set/dict-view iteration order leaking into results
``unpicklable-worker-state`` process-backend worker-spec pickle safety
``nondeterministic-key``    id()/hash()/env/time values inside keys
``shm-lifecycle``           shared-memory segments released by an owner
``no-wallclock-in-key``     timing values flowing (one hop) into keys
``unbounded-recv``          blocking receives supervised by a deadline
========================== ==================================================
"""

from . import nondet_key  # noqa: F401
from . import pickle_safety  # noqa: F401
from . import shm_lifecycle  # noqa: F401
from . import unbounded_recv  # noqa: F401
from . import unordered_iteration  # noqa: F401
from . import wallclock_key  # noqa: F401
