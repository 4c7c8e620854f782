"""Rule registry for the determinism linter.

Each rule lives in a themed module and registers here.  Adding a rule:
subclass :class:`repro.analysis.lint.Rule`, give it the next free
``RPRxxx`` ID and a one-line ``title``, implement ``visit_*`` methods
that call ``self.report(node, message)``, then append the class to
``ALL_RULES`` and document it in ``docs/static-analysis.md``.
"""

from repro.analysis.rules.concurrency import (
    UnguardedSharedMutationRule,
    YieldAcrossCriticalSectionRule,
)
from repro.analysis.rules.determinism import (
    SetOrderRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules.io import (
    HostFileIoRule,
    HostNetExecRule,
    SubstrateBypassRule,
)
from repro.analysis.rules.lifetime import MethodCacheRule

#: Every registered rule, in ID order.
ALL_RULES = (
    WallClockRule,
    UnseededRandomRule,
    SetOrderRule,
    HostFileIoRule,
    HostNetExecRule,
    SubstrateBypassRule,
    UnguardedSharedMutationRule,
    YieldAcrossCriticalSectionRule,
    MethodCacheRule,
)

__all__ = [
    "ALL_RULES",
    "HostFileIoRule",
    "HostNetExecRule",
    "MethodCacheRule",
    "SetOrderRule",
    "SubstrateBypassRule",
    "UnguardedSharedMutationRule",
    "UnseededRandomRule",
    "WallClockRule",
    "YieldAcrossCriticalSectionRule",
]
