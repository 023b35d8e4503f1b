"""disclab: capacities, interpolation diagnostics, and Bergman-tree
potential theory on the unit disc."""

__version__ = "0.1.0"
