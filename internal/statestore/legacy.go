// Legacy text state files (v1–v4). Before v5 every checkpoint rewrote a
// site's whole history as canonical syslog lines. Those files still
// load — through loadLegacy alone — and a Store that restored one
// writes each site's records as one full segment at its first commit,
// after which the text generation ages off the ladder.
package statestore

import (
	"bytes"
	"fmt"

	"repro/internal/mce"
	"repro/internal/syslog"
)

// Legacy magics: v2 added the shed count, v3 per-site sections, v4 the
// alarm ledger.
const (
	magicV1 = "astrad-state v1"
	magicV2 = "astrad-state v2"
	magicV3 = "astrad-state v3"
	magicV4 = "astrad-state v4"
)

// loadLegacy parses a v1–v4 text state image into per-site snapshots:
// v1/v2 as one site named "default" with an empty ledger, v3 with empty
// ledgers. A checksum trailer is verified and stripped when present
// (v1–v3 files may predate sealing); a wrong one is corruption.
func loadLegacy(data []byte) ([]Snapshot, error) {
	data, err := openLegacySeal(data)
	if err != nil {
		return nil, err
	}
	for _, v := range []struct {
		magic          string
		multi, hasShed bool
		hasAlarms      bool
	}{
		{magicV4, true, true, true},
		{magicV3, true, true, false},
		{magicV2, false, true, false},
		{magicV1, false, false, false},
	} {
		rest, ok := bytes.CutPrefix(data, []byte(v.magic+"\n"))
		if !ok {
			continue
		}
		c := &cursor{data: data, off: len(data) - len(rest), site: "default"}
		if !v.multi {
			snap, err := c.legacySection(v.hasShed, false)
			if err != nil {
				return nil, err
			}
			snap.ID = "default"
			if err := c.end(); err != nil {
				return nil, err
			}
			return []Snapshot{snap}, nil
		}
		var snaps []Snapshot
		err := c.sites(func(string) error {
			snap, err := c.legacySection(true, v.hasAlarms)
			snaps = append(snaps, snap)
			return err
		})
		if err != nil {
			return nil, err
		}
		return snaps, nil
	}
	return nil, fmt.Errorf("statestore: state file: bad header")
}

// openLegacySeal verifies and strips an optional checksum trailer.
func openLegacySeal(data []byte) ([]byte, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return data, nil
	}
	i := bytes.LastIndexByte(data[:len(data)-1], '\n')
	if !bytes.HasPrefix(data[i+1:], []byte(checksumPrefix)) {
		return data, nil
	}
	return openSeal(data)
}

// legacySection parses one checkpoint/shed/records[/alarms] section.
func (c *cursor) legacySection(hasShed, hasAlarms bool) (Snapshot, error) {
	snap := Snapshot{ID: c.site}
	var err error
	if snap.Checkpoint, err = c.checkpoint(); err != nil {
		return Snapshot{}, err
	}
	if hasShed {
		if snap.Shed, err = c.uintField("shed"); err != nil {
			return Snapshot{}, err
		}
	}
	count, err := c.count("records", 64)
	if err != nil {
		return Snapshot{}, err
	}
	var dec syslog.Decoder
	snap.Records = make([]mce.CERecord, 0, count)
	for i := 0; i < count; i++ {
		line, ok := c.line()
		if !ok {
			return Snapshot{}, c.fail("truncated at record %d of %d", i, count)
		}
		p, perr := dec.ParseLineBytes(line)
		if perr != nil || p.Kind != syslog.KindCE {
			return Snapshot{}, c.fail("record %d: bad CE line %q: %v", i, line, perr)
		}
		snap.Records = append(snap.Records, p.CE)
	}
	if hasAlarms {
		if snap.Alarms, err = c.alarms(); err != nil {
			return Snapshot{}, err
		}
	}
	return snap, nil
}
