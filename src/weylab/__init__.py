"""weylab: a numerical laboratory for phase-space analysis of degenerate
Schrodinger operators.

The package is organized around the pipeline symbol -> metric -> operator:

* profiles: the smooth cutoff profile and the weight-shell bump;
* symbols, metric: symbol classes with exact jets, order functions,
  split metrics and their admissibility gates;
* quantize: the grid type, and discrete quantization on periodic grids;
* builders: one table of models, each giving its principal symbol,
  weight and grid operators;
* hamiltonians, spectral, evolve: finite-difference operators,
  certified eigensolves, growth fits, compactness trend experiments,
  unitary and heat flows;
* bounds: sup-norm band probes, p-norm window brackets, subellipticity
  ladders;
* cli: the config-driven runner (`weylab run`, `list-builders`,
  `reproduce`).
"""

__version__ = "0.1.0"

from .builders import get_a2, get_operator, get_weight
from .hamiltonians import (DirichletGrid, HamiltonianMatrix, Potential,
                           hamiltonian_with_potential, tensor_stencil_matrix,
                           validate_p2)
from .metric import (MetricCheckReport, WeightEvaluator, check_pairs, check_uncertainty,
                     eval_dual_metric, eval_metric, planck)
from .profiles import CutoffProfileSquared
from .quantize import Grid, kn_quantize, tau_quantize, weyl_quantize
from .spectral import (GrowthFit, SpectralResult, Spectrum, eigensolve, growth_fit,
                       schatten_sweep)
from .symbols import (SeminormEstimate, SymbolEvaluator, class_membership, smg_seminorm,
                      with_confinement)
from .evolve import EvolutionTrace, Propagator, heat_evolve, schrodinger_evolve

__all__ = [name for name in dir() if not name.startswith("_")]
