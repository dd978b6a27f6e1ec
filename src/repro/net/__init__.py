"""Wide-area network substrate.

Hosts, weighted topologies with routing tables, pluggable latency models
(LAN and WAN profiles), crash/link fault injection, asynchronous
message delivery and traffic accounting. Simulated time is in
**milliseconds** throughout.
"""
