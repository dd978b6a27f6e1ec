"""MARP — the paper's contribution: mobile-agent replication control.

The protocol lives in the sans-IO kernel, :mod:`repro.core.machines`;
:mod:`repro.replication.protocol` runs it on the DES and
:mod:`repro.runtime` on threads.
"""
