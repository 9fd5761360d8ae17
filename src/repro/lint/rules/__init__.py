"""The bundled invariant rules.

Importing this package registers every rule in
:data:`repro.lint.analyzer.RULES`.  Each module holds one rule (plus
its helpers); adding a rule is: write the module, import it here.
"""

from repro.lint.rules import (  # noqa: F401  (import-for-side-effect)
    atomicwrite,
    busguard,
    events,
    slots,
    twin,
    wallclock,
    writeonly,
)
