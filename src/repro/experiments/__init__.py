"""Experiment harness: the run engine, the scale family and the paper's
claims as rows (:mod:`repro.experiments.claims`)."""
