"""Equational specifications as finite-product sketches, with a
diagrammatic inference engine, a parameterization pass, and propagating
finite-model checking."""

from .core import (IsoResult, Specification, SpecMorphism, Term, compose,
                   coproduct, fresh_name, identity_morphism, iso_search,
                   pushout, pushout_universal_check, spec_equal, validate,
                   validate_morphism)
from .decorate import (DecoratedSpecification, decoration_closure, pure_part,
                       purify, undecorate, validate_decorated)
from .inference import (Fraction, InferenceRule, RuleTag, Saturation, TriState,
                        Verdict, apply_rule, compose_fractions,
                        identity_fraction, is_entailment, rule, saturate,
                        terms_equal)
from .models import (ExactnessReport, FiniteModel, ModelHom, check_model,
                     enumerate_models, exactness_check, hom_search,
                     is_terminal, pass_parameter, terminal_model)
from .parameterize import (EllResult, Parameterization,
                           ParameterizedSpecification,
                           ParameterizedSpecificationWithConstant,
                           check_ell_natural, check_param_restricts_to_embed,
                           ell, embed_A, embed_a, parameterize,
                           parameterize_morphism)
from .sketch import (FiniteRealization, LimitSketch, check_realization,
                     equational_sketch, realization_to_spec,
                     spec_to_realization, validate_sketch)
from .yoneda import ElementaryPoint, elementary
