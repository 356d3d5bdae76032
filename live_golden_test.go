package nassim_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"nassim"
)

// liveReportDigests are sha256 digests, per live-test seed, over the live
// reports of the four built-in vendors at scale 0.05 with configuration
// validation on: every LiveResult field and every verified
// NewConfigLines entry. They were recorded while each show readback still
// rendered and copied the whole running configuration, so a readback that
// hands out a view must verify exactly the same instances.
var liveReportDigests = map[uint64]string{
	0: "af8c6ac55b19586d3767d88fd864118cea9337e7efb182df756140ca837a70d8",
	1: "c9c7aef6892883c66015b423d35e471835fba8c082f6a42441e41849841b7e63",
}

func TestLiveReportDigest(t *testing.T) {
	for seed, want := range liveReportDigests {
		res, err := nassim.Assimilate(context.Background(), nassim.Options{
			Scale: 0.05, Validate: true, LiveTest: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, r := range res.Results {
			live := r.Live
			if live == nil || live.Degraded {
				t.Fatalf("seed %d: %s live report %+v", seed, r.Model.Vendor, live)
			}
			writeString(h, string(r.Model.Vendor))
			writeInts(h, live.Tested, live.Accepted, live.Verified, len(live.Results))
			for _, lr := range live.Results {
				writeInts(h, lr.Corpus, boolInt(lr.Accepted), boolInt(lr.Verified))
				writeString(h, lr.Instance)
				writeString(h, lr.Err)
			}
			writeInts(h, len(live.NewConfigLines))
			for _, l := range live.NewConfigLines {
				writeString(h, l)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("seed %d: live report digest %s, want %s", seed, got, want)
		}
	}
}

func writeInts(h hash.Hash, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

// writeString writes s with its length, so adjacent strings cannot run
// into each other.
func writeString(h hash.Hash, s string) {
	writeInts(h, len(s))
	h.Write([]byte(s))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
