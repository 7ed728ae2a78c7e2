"""Many-valued concept lattices with modal operators, and analyses on top.

The layers, bottom to top: finite residuated truth algebras; sets and
relations valued in them; formal contexts and their concept lattices;
contexts enriched with modal relations; a small formula language with
models, truth and validity; canonical frames over finite modal
lattices; and a competition-analysis vocabulary for arenas of firms
and product markets.
"""

from .algebra import (
    TruthAlgebra,
    ValidationReport,
    aggregate,
    boolean_algebra,
    construct_chain,
    custom_algebra,
    goedel_chain,
    lukasiewicz_chain,
    validate_algebra,
)
from .canonical import (
    CanonicalParts,
    CanonicalSurrogate,
    LemmaReport,
    ModalLattice,
    MvFilter,
    MvIdeal,
    box_inverse,
    build_surrogate,
    canonical_model,
    canonical_parts,
    chain_modal_lattice,
    diamond_inverse,
    diamond_modal_lattice,
    enumerate_filters,
    enumerate_ideals,
    eval_in_lattice,
    lemma_suite,
)
from .context import Concept, ConceptLattice, Context, enumerate_concepts
from .errors import (
    CapabilityError,
    InputError,
    MvpolarError,
    ParseError,
    ResourceError,
    UsageError,
)
from .fileio import (
    algebra_from_dict,
    algebra_from_spec,
    load_context,
    load_frame,
    load_modal_lattice,
    load_model,
)
from .frames import (
    CompatibilityReport,
    EnrichedContext,
    compatible_box_closure,
    compatible_diamond_closure,
)
from .market import (
    AnalysisReport,
    Arena,
    basket_category,
    box_refinement_analysis,
    firm_category,
    load_arena,
    market_category,
    typicality_analysis,
)
from .mvsets import MvRelation, MvSet, lift0, lift1, singleton, subsethood
from .sampling import random_compatible_frame, random_context, random_formula
from .semantics import (
    ComplexAlgebra,
    Model,
    SoundnessReport,
    ValidityVerdict,
    description_degree,
    evaluate,
    membership_degree,
    sequent_true,
    sequent_valid,
    soundness_suite,
    truth_witness,
)
from .syntax import (
    BOT,
    TOP,
    Formula,
    Sequent,
    atom,
    axiom_catalogue,
    box,
    conj,
    dia,
    disj,
    lhd,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
    rhd,
)

__version__ = "0.1.0"
