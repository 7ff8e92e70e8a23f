"""Spectral analysis of Independence-of-Rankings social aggregators.

Library layout:

- perms: permutations, fixing subgroups and their coset ids
- basis: change of basis, the standard representation, projections
- aggregators: coset-valued rules, coset means, consistency
- laplacian: constraint operators, quadratic forms, spectra
- metrics: exact IR values, zero-locus census, manipulation power
- rounding: exact kernel projection, nearest-dictator recovery, diagnostics
- moments: exact moment calculus, the exact hypercontractivity bound
  and the matrix Cauchy-Schwarz check
- cli: JSON report front-end (`irlap spectra|census|analyze|moments`);
  each subcommand imports only the modules it runs
"""

__version__ = "0.1.0"
