"""Proof-theory workbench: an ordinal notation system below the first
epsilon number past Omega, a finitary sequent calculus for set theory
with iterated admissibility, and lazily expanded operator-controlled
infinitary derivations with embedding, reduction, and predicative cut
elimination."""
