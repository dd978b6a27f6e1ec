"""Workload generation: arrival processes, operation mixes, traces."""
