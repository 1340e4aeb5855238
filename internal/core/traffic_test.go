package core_test

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
)

// TestTrafficStringOrder: the breakdown lists kinds by bytes descending,
// breaks byte ties by kind order, and omits kinds that carried nothing —
// so equal counts print the same way on every run.
func TestTrafficStringOrder(t *testing.T) {
	var tr core.TrafficStats
	tr.Messages[coherence.Data], tr.Bytes[coherence.Data] = 2, 144
	tr.Messages[coherence.Ack], tr.Bytes[coherence.Ack] = 5, 40
	tr.Messages[coherence.GetS], tr.Bytes[coherence.GetS] = 5, 40
	tr.Messages[coherence.Nack] = 3 // counted messages but no bytes: omitted
	want := "Data: 2 msgs, 144 B\n" +
		"GetS: 5 msgs, 40 B\n" +
		"Ack: 5 msgs, 40 B\n"
	for i := 0; i < 20; i++ {
		if got := tr.String(); got != want {
			t.Fatalf("String() =\n%s\nwant\n%s", got, want)
		}
	}
	if got := tr.TotalBytes(); got != 224 {
		t.Errorf("TotalBytes = %d, want 224", got)
	}
	if got, want := tr.ControlBytes(), uint64(80); got != want {
		t.Errorf("ControlBytes = %d, want %d", got, want)
	}
}
