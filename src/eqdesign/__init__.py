"""Edge-equitable hypercube designs for elementary-effects screening; import
names from the submodules poly, families, effects, screening and cli."""

from . import effects, families, poly, screening

__version__ = "0.1.0"
