"""Connection management for dense cellular networks.

Simulates hexagonal multi-cell deployments, learns user-cell association
with a graph Q-network, and serves handover decisions over a line-based
JSON protocol.
"""

from cellconn.netmodel import RadioConfig, Deployment, generate_deployment
from cellconn.graph import ConnectionGraph

__all__ = [
    "RadioConfig",
    "Deployment",
    "generate_deployment",
    "ConnectionGraph",
]

__version__ = "0.1.0"
