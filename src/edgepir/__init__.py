"""MDS-coded caching with private information retrieval for edge networks.

Modules:
    gf         finite fields GF(q), GF(q) digit-vector symbols, linear algebra
    codes      GRS / generic MDS linear codes and erasure decoding
    cache      file library, bit packing, coded SBS caches, snapshots
    pirproto   query generation, responses, recovery, privacy checks
    topology   coverage distributions (grid, PPP) and Zipf popularity
    rates      closed-form backhaul / SBS / weighted rates
    optimizer  placement and protocol-parameter optimization, sweeps
    simnet     end-to-end simulated network with exact bit accounting
    cli        command-line front end (``edgepir``)
"""

__version__ = "0.1.0"
