"""groupk: exact computation of K-theory and homology obstructions to the
injectivity of the assembly map for finite groups over finite fields."""

__version__ = "0.1.0"

from .abelian import FgAbelianGroup, from_presentation, tensor, tor_product
from .errors import (
    GroupKError,
    InsufficientDegrees,
    NotAbelian,
    NotAComplex,
    NotAGroup,
    NotAPrimePower,
    NotSemisimple,
    ParseError,
    TooLarge,
)
from .groups import (
    FiniteGroup,
    abelianization,
    conjugacy_classes,
    cyclic,
    dihedral,
    direct_product,
    element_order,
    group_from_file,
    group_from_table,
    permutation_closure,
    symmetric,
)
from .intlinalg import IntegerMatrix, SmithDecomposition, homology_of_pair, smith_normal_form
from .homology import (
    bar_boundary,
    cyclic_homology_oracle,
    integral_homology,
    integral_homology_sequence,
    kunneth_oracle,
)
from .kfield import PrimePower, k_finite_field, validate_prime_power
from .grouprings import (
    WedderburnSummary,
    abelian_wedderburn,
    component_count,
    is_semisimple,
    k_group_ring,
    wedderburn_summary,
)
from .assembly import (
    E2Page,
    NonInjectivityCertificate,
    certify_noninjectivity,
    e2_page,
)

__all__ = [name for name in dir() if not name.startswith("_")]
