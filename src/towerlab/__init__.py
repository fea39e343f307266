"""Numerical laboratory for nonuniformly expanding interval maps,
Young towers, suspension semiflows and their transfer operators."""

from towerlab.maps import (
    MapModel,
    PomeauManneville,
    pomeau_manneville,
    doubling_map,
    InducedMap,
    induce,
    return_time_tail,
    fit_tail_exponent,
)
from towerlab.tower import Tower
from towerlab.suspension import (
    RoofFunction,
    Observable,
    SuspensionModel,
    sample_stationary,
    flow,
    correlation_mc,
)
from towerlab.periodic import FiniteSubsystem, enumerate_periodic

__version__ = "0.1.0"
