"""Toolkit for low-degree GF(2) polynomial randomness extractors.

Submodules:

- :mod:`polyext.gf2` — bit-packed vectors/matrices, rank, samplers, enumerators
- :mod:`polyext.anf` — algebraic normal form, evaluation maps, composition
- :mod:`polyext.sources` — weak-source models with exact support enumeration
- :mod:`polyext.bias` — exact/Monte-Carlo bias, moment identities, audits
- :mod:`polyext.ranklab` — evaluation-rank certificates and sumset samplers
- :mod:`polyext.constructions` — two-source, seeded, and evasive extractors
- :mod:`polyext.codes` — balance reports, list sizes, Johnson-bound checks
- :mod:`polyext.oracles` — additive energy, shift counts, structure attacks
- :mod:`polyext.experiments` — the seeded experiment registry and its runner
- :mod:`polyext.reports` — report containers, canonical JSON and CSV output
- :mod:`polyext.io` — parsers and emitters for the on-disk formats
- :mod:`polyext.rng` — seed derivation for independent random streams
- :mod:`polyext.errors` — shared exception types
- :mod:`polyext.cli` — command-line front end
"""

__version__ = "0.1.0"
