"""Tropical side of the verification: piecewise-linear geometry over Q.

Laurent families with fractional powers of the degeneration parameter t
tropicalize to min-of-affine-forms functions; corner loci, complement
chambers, lattice-affine volumes and edge singularity counts are all
computed in exact rational arithmetic.  Corner loci and chambers are
found in any ambient dimension; a corner-locus cell is its active set,
its sorted vertices and whether it is bounded, and a `halfplane_polygon`
is its sorted vertices.  Each exact job is written once: one row
clearing, one elimination, whose pivots give every rank, one vertex
search for the corner locus and the compact chamber, whose vertices
carry the forms least there and give every cell, one cone-ray search
for the facets of a hull, which also gives the Newton polytope's facets
and so which cells and chambers are bounded, and for the vertices and
boundedness of a `halfplane_polygon`, and one lattice measure.
"""

from .forms import (
    AffineForm,
    LaurentFamily,
    LaurentTerm,
    TropicalPolynomial,
    monomial_substitution,
    tropicalize,
)
from .lattice import (
    affine_length,
    affine_volume,
    polygon_affine_area,
    primitive_vector,
)
from .polyhedra import (
    Cell,
    CellComplex,
    LatticePolytope,
    boundary_affine_area,
    compact_chamber,
    corner_locus,
    edge_singularities,
    halfplane_polygon,
)

__all__ = [
    "AffineForm",
    "LaurentFamily",
    "LaurentTerm",
    "TropicalPolynomial",
    "tropicalize",
    "monomial_substitution",
    "primitive_vector",
    "affine_length",
    "polygon_affine_area",
    "affine_volume",
    "Cell",
    "CellComplex",
    "LatticePolytope",
    "corner_locus",
    "compact_chamber",
    "boundary_affine_area",
    "edge_singularities",
    "halfplane_polygon",
]
