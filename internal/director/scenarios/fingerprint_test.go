package scenarios

import (
	"fmt"
	"testing"
)

// pinnedFingerprints are the recorded history-and-schedule hashes of every
// scenario in the pack at PinnedSeed. They hold under any -cpu setting: a
// directed run serialises its tasks, so the recording is a function of the
// seed and of the code paths the structures take at each yield point. A
// refactor of the data-path packages that keeps every draw of the handles'
// RNGs and every gate site in place keeps these values; a change here means
// the structures now behave differently under the same schedule, which
// must be deliberate and stated.
var pinnedFingerprints = map[string]string{
	NameTheoremOneReplay:          "649e0eed0e10004e",
	NameQueueWitnessReplay:        "f8cd7860e6ab2182",
	NameShrinkDuringDrain:         "547d4f3e2344d90b",
	NameSwapDuringStorm:           "3ba8851c123c9843",
	NameSocketSkew:                "43646d3db9feb886",
	NameGuidedFrontier:            "04ff8563a6775216",
	NameBufferedShrinkDuringDrain: "2ddf1de052294ab2",
	NameBufferedSwapDuringStorm:   "6be1baffa4b70c07",
}

func TestScenarioFingerprintsPinned(t *testing.T) {
	pack := All()
	if len(pack) != len(pinnedFingerprints) {
		t.Fatalf("pack has %d scenarios, the table pins %d", len(pack), len(pinnedFingerprints))
	}
	for _, sc := range pack {
		t.Run(sc.Name, func(t *testing.T) {
			want, ok := pinnedFingerprints[sc.Name]
			if !ok {
				t.Fatalf("no pinned fingerprint for %s", sc.Name)
			}
			out, err := sc.Run(PinnedSeed)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", out.Fingerprint()); got != want {
				t.Fatalf("fingerprint %s, pinned %s", got, want)
			}
		})
	}
}
