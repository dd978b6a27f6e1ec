"""Workload generation: arrival processes and operation mixes."""
