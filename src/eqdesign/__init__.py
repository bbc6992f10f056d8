"""Edge-equitable hypercube designs for elementary-effects screening."""

from .poly import (DesignPoly, DimensionMismatch, common_multiplicity,
                   design_from_dict, dumps_design, loads_design,
                   mono_from_vars, mono_parse, mono_str, to_dot)
from .families import (FAMILIES, LeafDecomposition, check_domain,
                       economy_limits, gen_G, gen_H, gen_M, gen_path, generate,
                       leaf_counts, min_size_oracle, predicted_size,
                       predicted_size_G, predicted_size_H, predicted_size_M,
                       q_min)
from .effects import (EffectIncidence, FactorStats, ReplicatedDesign,
                      build_incidence, elementary_effects, embed,
                      order_vertices, pairs_csv, pooled_stats, randomize,
                      sample_base)
from .screening import (REFERENCE_CLASSES, ScreenConfig, ScreenReport,
                        BenchmarkFunction, build_test_function, classify,
                        config_from_dict, run_screen, w_transform)

__version__ = "0.1.0"
