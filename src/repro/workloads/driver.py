"""Per-client request generation and its seed derivation.

:class:`WorkloadSession` is one serving tenant's request stream;
:func:`_derive_seed` gives every tenant (in the serve loop and in the
batch driver, :class:`~repro.cluster.workload.ClusterWorkload`) its own
decoupled RNG seed.
"""

from __future__ import annotations

import zlib
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError
from repro.oltp.engine import TxnContext

__all__ = ["WorkloadSession"]


def _derive_seed(seed: int, label: str) -> int:
    """Per-label RNG seed (CRC-32 derivation, the tpcc_gen idiom)."""
    return (int(seed) ^ zlib.crc32(label.encode("ascii"))) & 0x7FFF_FFFF


class WorkloadSession:
    """Per-client request generation for the serve layer.

    One session owns a seeded :class:`~repro.oltp.tpcc.TPCCDriver` plus
    an independent request-kind stream, so N concurrent tenants draw
    from N decoupled random streams: adding a tenant (or reordering
    service) never perturbs another tenant's request sequence. Requests
    are ``("oltp", txn_closure)`` or ``("olap", query_name)`` pairs.
    """

    def __init__(
        self,
        engine: PushTapEngine,
        tenant: int,
        num_tenants: int = 1,
        seed: int = 11,
        olap_fraction: float = 0.05,
        queries: Sequence[str] = ("Q1", "Q6", "Q9"),
        payment_fraction: float = 0.5,
        delivery_fraction: float = 0.0,
    ) -> None:
        if not 0.0 <= olap_fraction <= 1.0:
            raise ConfigError("olap_fraction must be in [0, 1]")
        if not 0 <= tenant < num_tenants:
            raise ConfigError("tenant index must be in [0, num_tenants)")
        if not queries:
            raise ConfigError("at least one analytical query is required")
        self.tenant = int(tenant)
        self.olap_fraction = olap_fraction
        self.queries = list(queries)
        # Striding the order-id space keeps N drivers over one database
        # from ever colliding on an order key.
        self.driver = engine.make_driver(
            seed=_derive_seed(seed, f"tenant{tenant}.workload"),
            payment_fraction=payment_fraction,
            delivery_fraction=delivery_fraction,
            o_id_offset=int(tenant),
            o_id_stride=int(num_tenants),
        )
        self._kind_rng = np.random.RandomState(
            _derive_seed(seed, f"tenant{tenant}.kind")
        )
        self._query_cursor = 0

    def next_request(self) -> Tuple[str, object]:
        """The session's next request: kind plus its payload."""
        if self._kind_rng.random_sample() < self.olap_fraction:
            name = self.queries[self._query_cursor % len(self.queries)]
            self._query_cursor += 1
            return ("olap", name)
        return ("oltp", self.driver.next_transaction())

    def note_abort(self, txn: Callable[[TxnContext], None]) -> None:
        """Forward an abort to the TPC-C driver's bookkeeping."""
        self.driver.note_abort(txn)
