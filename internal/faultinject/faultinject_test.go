package faultinject

import "testing"

// TestFaultErrorMessage pins the text of a fault for each point kind,
// on a single device and on a fabric's second chip.
func TestFaultErrorMessage(t *testing.T) {
	for _, tc := range []struct {
		class Class
		point Point
		want  string
	}{
		{DeviceReset, Point{Superstep: 3, Phase: "cover_cols", Kind: KindSuperstep},
			`faultinject: reset fault at superstep 3 (phase "cover_cols")`},
		{ExchangeCorruption, Point{Superstep: 5, Phase: "host:write", Kind: KindHostWrite},
			`faultinject: exchange fault at host-write, superstep 5 (phase "host:write")`},
		{HostTransferStall, Point{Superstep: 8, Phase: "host:read", Kind: KindHostRead},
			`faultinject: stall fault at host-read, superstep 8 (phase "host:read")`},
		{TileMemoryPressure, Point{Superstep: 0, Phase: "alloc", Kind: KindAlloc},
			`faultinject: memory fault at alloc, superstep 0 (phase "alloc")`},
		{DeviceLoss, Point{Superstep: 150, Phase: "s4_prime_scan", Kind: KindSuperstep, Device: 1},
			`faultinject: deviceloss fault at superstep 150 (phase "s4_prime_scan", device 1)`},
		{ExchangeCorruption, Point{Superstep: 6, Phase: "host:write", Kind: KindHostWrite, Device: 1},
			`faultinject: exchange fault at host-write, superstep 6 (phase "host:write", device 1)`},
		{HostTransferStall, Point{Superstep: 9, Phase: "host:read", Kind: KindHostRead, Device: 2},
			`faultinject: stall fault at host-read, superstep 9 (phase "host:read", device 2)`},
		{DeviceReset, Point{Superstep: 1, Phase: "alloc", Kind: KindAlloc, Device: 3},
			`faultinject: reset fault at alloc, superstep 1 (phase "alloc", device 3)`},
	} {
		if got := (&FaultError{Class: tc.class, Point: tc.point, Rule: 0}).Error(); got != tc.want {
			t.Errorf("got  %s\nwant %s", got, tc.want)
		}
	}
}
