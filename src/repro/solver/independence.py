"""Independent-constraint splitting, as the solver chain names it.

The implementation lives in :mod:`repro.expr.independence`: the
α-canonical keys of :mod:`repro.expr.canon` are composed per
independence component, and the expression layer cannot import the
solver layer.
"""

from ..expr.independence import relevant_constraints, split_independent

__all__ = ["relevant_constraints", "split_independent"]
