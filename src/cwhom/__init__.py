"""cwhom: asynchronous four-photon HOM interference with CW-pumped sources."""
