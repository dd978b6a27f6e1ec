"""Operation mixes: what each generated request does.

The paper's evaluation is update-driven (every request dispatches an
agent) while its design argument assumes a "high read-to-update ratio".
:class:`OperationMix` covers both: a write fraction, a key population
with optional Zipf skew, and a value generator.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import WorkloadError
from repro.replication.requests import READ, WRITE
from repro.sim.rng import Stream

__all__ = ["OperationMix"]


class OperationMix:
    """Samples (operation, key, value) triples.

    Parameters
    ----------
    write_fraction:
        Probability a request is an update (1.0 reproduces the paper's
        evaluation workload).
    keys:
        Key population; defaults to the single object ``"x"`` — the paper
        coordinates one replicated data item.
    key_skew:
        Zipf theta over the key population (0 = uniform).
    """

    def __init__(
        self,
        write_fraction: float = 1.0,
        keys: Optional[List[str]] = None,
        key_skew: float = 0.0,
    ) -> None:
        if not 0.0 <= write_fraction <= 1.0:
            raise WorkloadError(
                f"write_fraction must be in [0, 1]: {write_fraction}"
            )
        if key_skew < 0:
            raise WorkloadError(f"key_skew must be >= 0: {key_skew}")
        self.write_fraction = write_fraction
        if keys is not None and len(keys) == 0:
            raise WorkloadError("key population must be non-empty")
        self.keys = list(keys) if keys is not None else ["x"]
        self.key_skew = key_skew
        self._value_counter = 0

    def sample_batch(
        self, count: int, op_stream: Stream, key_stream: Stream
    ) -> List[Tuple[str, str, Optional[int]]]:
        """``count`` (op, key, value) draws via vectorized sampling.

        Operations and keys come from *separate* named streams so the
        sequence is invariant under chunk size: the i-th triple is the
        same whether the run draws one chunk of 10_000 or ten of 1_000.
        Write values count up from 1 across calls; reads carry
        ``value=None``.
        """
        count = int(count)
        is_write = op_stream.random_batch(count) < self.write_fraction
        keys = self.keys
        if len(keys) == 1:
            key_seq = [keys[0]] * count
        else:
            indices = key_stream.zipf_indices(
                len(keys), self.key_skew, count
            )
            key_seq = [keys[index] for index in indices]
        triples: List[Tuple[str, str, Optional[int]]] = []
        append = triples.append
        counter = self._value_counter
        for index in range(count):
            if is_write[index]:
                counter += 1
                append((WRITE, key_seq[index], counter))
            else:
                append((READ, key_seq[index], None))
        self._value_counter = counter
        return triples

    def __repr__(self) -> str:
        return (
            f"OperationMix(write_fraction={self.write_fraction}, "
            f"keys={len(self.keys)}, skew={self.key_skew})"
        )
