"""Exact verification of finite groupoid actions on products of finite
field blocks: invariants, Galois coordinates, skew groupoid rings, the
set/algebra equivalence and the subgroupoid correspondence.

The package root exports the names of the README's library example; every
other name is imported from its module."""

from .scalar import make_field
from .groupoid import validate_groupoid
from .blockring import make_ring
from .action import validate_action, invariants, find_galois_coordinates
from .galois import galois_correspondence

__version__ = "0.1.0"
