"""Replication substrate: versioned stores, locking structures, replica
servers (the paper's Algorithm 2), deployment wiring and clients."""
