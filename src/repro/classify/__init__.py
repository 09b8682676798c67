"""Flow classification: header-space predicates, atomic predicates, splits.

Sec. IV-A aggregates flows into equivalence classes using atomic-predicate
analysis [44][42]; Sec. V-A splits classes into sub-classes realised either
by consistent hashing or by prefix (wildcard-rule) sets.  This package
implements all three pieces from scratch:

* :mod:`repro.classify.predicates` — header-space predicates as unions of
  disjoint multi-field cubes (the BDD replacement; see DESIGN.md);
* :mod:`repro.classify.atomic` — Yang–Lam-style atomic-predicate partition;
* :mod:`repro.classify.rules` — match rules and IPv4-prefix handling;
* :mod:`repro.classify.split` — hash-range → minimal prefix-set conversion
  (the TCAM cost of the prefix sub-class method).
"""
