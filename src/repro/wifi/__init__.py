"""802.11 substrate: PHY/propagation, DCF MAC, sharing law, channels."""

from .channels import (NON_OVERLAPPING_2_4GHZ, ChannelPlan,
                       assign_channels, interference_graph)
from .mac import DcfParameters, DcfResult, DcfSimulator
from .phy import MCS_TABLE_80211N_20MHZ, WifiPhy
from .rate_adaptation import (ArfRateController,
                              frame_success_probability, probe_rate)
from .sharing import cell_throughputs, cell_throughputs_batch

__all__ = [
    "WifiPhy", "MCS_TABLE_80211N_20MHZ",
    "DcfSimulator", "DcfParameters", "DcfResult",
    "cell_throughputs", "cell_throughputs_batch",
    "assign_channels", "ChannelPlan", "interference_graph",
    "NON_OVERLAPPING_2_4GHZ",
    "ArfRateController", "frame_success_probability", "probe_rate",
]
