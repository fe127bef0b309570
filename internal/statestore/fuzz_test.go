package statestore

import (
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/syslog"
)

// FuzzHead: decodeHead never panics on hostile bytes, and whatever it
// accepts re-encodes to exactly the same bytes — a head has one
// rendering, so a mutation that still verifies cannot smuggle in state
// the encoder would not have written.
func FuzzHead(f *testing.F) {
	recs := testRecords(3)
	valid, err := encodeHead([]Site{
		{ID: "east", Checkpoint: syslog.Checkpoint{Offset: 99}, Shed: 2,
			Segments: []Segment{{Name: "astrad.state.seg-0000000000000001", Count: 3, CRC: 0xdeadbeef}},
			Alarms:   []Alarm{{Key: core.RecordBankKey(&recs[1]), At: 12345}}},
		{ID: "west"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(Magic + "\n"))
	f.Add([]byte(""))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		sites, err := decodeHead(data)
		if err != nil {
			return
		}
		again, err := encodeHead(sites)
		if err != nil {
			t.Fatalf("accepted head does not re-encode: %v", err)
		}
		if !reflect.DeepEqual(again, data) {
			t.Fatalf("accepted head re-encodes differently:\n%q\n%q", data, again)
		}
	})
}

// FuzzSegment: verifySegment and appendSegment never panic, and a
// segment is accepted only when its CRC, kinds and record count match
// the head's entry.
func FuzzSegment(f *testing.F) {
	valid, err := encodeSegment(testRecords(40))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, 40)
	f.Add(valid[:len(valid)-5], 40)
	f.Add([]byte("ASTRACOL\x01"), 0)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		g := Segment{Name: "s", Count: count, CRC: crc32.ChecksumIEEE(data)}
		if err := verifySegment(data, g); err != nil {
			return // a count the bytes cannot back
		}
		recs, err := appendSegment(nil, data, g)
		if err == nil && len(recs) != count {
			t.Fatalf("accepted %d records for a %d-record entry", len(recs), count)
		}
		g.CRC++
		if err := verifySegment(data, g); err == nil {
			t.Fatal("CRC mismatch accepted")
		}
	})
}
