package statestore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// checksumPrefix opens the seal: the last line of a head (and of a
// sealed legacy file) is "checksum crc32 %08x" over every byte before
// it.
const checksumPrefix = "checksum crc32 "

// encodeHead renders and seals a v5 head.
func encodeHead(sites []Site) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\nsites %d\n", Magic, len(sites))
	for _, s := range sites {
		cpb, err := s.Checkpoint.MarshalBinary()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "site %s\ncheckpoint %d\n", s.ID, len(cpb))
		b.Write(cpb)
		fmt.Fprintf(&b, "shed %d\nsegments %d\n", s.Shed, len(s.Segments))
		for _, g := range s.Segments {
			fmt.Fprintf(&b, "segment %s %d %08x\n", g.Name, g.Count, g.CRC)
		}
		fmt.Fprintf(&b, "alarms %d\n", len(s.Alarms))
		for _, a := range s.Alarms {
			fmt.Fprintf(&b, "alarm %s %d %d %d %d\n",
				a.Key.Node.String(), int(a.Key.Slot), a.Key.Rank, a.Key.Bank, a.At)
		}
	}
	fmt.Fprintf(&b, "%s%08x\n", checksumPrefix, crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes(), nil
}

// decodeHead verifies a v5 head's seal and parses it. A head without a
// valid seal is rejected outright: unlike legacy files, v5 heads were
// always sealed.
func decodeHead(data []byte) ([]Site, error) {
	body, err := openSeal(data)
	if err != nil {
		return nil, err
	}
	rest, ok := bytes.CutPrefix(body, []byte(Magic+"\n"))
	if !ok {
		return nil, fmt.Errorf("statestore: state file: bad %s header", Magic)
	}
	c := &cursor{data: body, off: len(body) - len(rest)}
	var sites []Site
	names := map[string]bool{}
	err = c.sites(func(id string) error {
		s := Site{ID: id}
		var err error
		if s.Checkpoint, err = c.checkpoint(); err != nil {
			return err
		}
		if s.Shed, err = c.uintField("shed"); err != nil {
			return err
		}
		n, err := c.count("segments", 16)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			g, err := c.segment()
			if err != nil {
				return err
			}
			if names[g.Name] {
				return c.fail("segment %s listed twice", g.Name)
			}
			names[g.Name] = true
			s.Segments = append(s.Segments, g)
		}
		if s.Alarms, err = c.alarms(); err != nil {
			return err
		}
		sites = append(sites, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sites, nil
}

// openSeal verifies the checksum trailer and returns the body before it.
func openSeal(data []byte) ([]byte, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("statestore: state file: no checksum trailer")
	}
	i := bytes.LastIndexByte(data[:len(data)-1], '\n')
	line := data[i+1 : len(data)-1]
	hex, ok := bytes.CutPrefix(line, []byte(checksumPrefix))
	if !ok {
		return nil, fmt.Errorf("statestore: state file: no checksum trailer")
	}
	want, err := strconv.ParseUint(string(hex), 16, 32)
	if err != nil || len(hex) != 8 {
		return nil, fmt.Errorf("statestore: state file: bad checksum trailer %q", line)
	}
	body := data[:i+1]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return nil, fmt.Errorf("statestore: state file: checksum mismatch: trailer %08x, content %08x over %d bytes", uint32(want), got, len(body))
	}
	return body, nil
}

// cursor walks a line-oriented state image. Errors name the site being
// parsed and the byte offset where parsing stopped, so a damaged
// generation is diagnosable from the log line alone.
type cursor struct {
	data []byte
	off  int
	site string
}

func (c *cursor) fail(format string, args ...any) error {
	return fmt.Errorf("statestore: state file: site %s: %s at byte %d", c.site, fmt.Sprintf(format, args...), c.off)
}

// line consumes and returns the next complete line (without '\n').
func (c *cursor) line() ([]byte, bool) {
	i := bytes.IndexByte(c.data[c.off:], '\n')
	if i < 0 {
		return nil, false
	}
	l := c.data[c.off : c.off+i]
	c.off += i + 1
	return l, true
}

// field consumes a "key value" line and returns the value.
func (c *cursor) field(key string) (string, error) {
	at := c.off
	l, ok := c.line()
	if v, found := strings.CutPrefix(string(l), key+" "); ok && found {
		return v, nil
	}
	c.off = at
	return "", c.fail("bad %s header", key)
}

func (c *cursor) uintField(key string) (uint64, error) {
	v, err := c.field(key)
	if err != nil {
		return 0, err
	}
	n, perr := strconv.ParseUint(v, 10, 64)
	if perr != nil {
		return 0, c.fail("bad %s header", key)
	}
	return n, nil
}

// count reads a "key N" item count. N is bounded by the bytes left at
// minBytes per item, so a corrupt count fails here instead of driving a
// huge allocation.
func (c *cursor) count(key string, minBytes int) (int, error) {
	n, err := c.uintField(key)
	if err != nil {
		return 0, err
	}
	if n > uint64((len(c.data)-c.off)/minBytes+1) {
		return 0, c.fail("%s count %d exceeds the %d bytes left", key, n, len(c.data)-c.off)
	}
	return int(n), nil
}

// checkpoint reads a length-prefixed scanner checkpoint.
func (c *cursor) checkpoint() (syslog.Checkpoint, error) {
	var cp syslog.Checkpoint
	n, err := c.uintField("checkpoint")
	if err != nil {
		return cp, err
	}
	if n > uint64(len(c.data)-c.off) {
		return cp, c.fail("truncated checkpoint (%d bytes promised, %d left)", n, len(c.data)-c.off)
	}
	if err := cp.UnmarshalBinary(c.data[c.off : c.off+int(n)]); err != nil {
		return cp, c.fail("checkpoint: %v", err)
	}
	c.off += int(n)
	return cp, nil
}

// segment reads one "segment name count crc" line.
func (c *cursor) segment() (Segment, error) {
	v, err := c.field("segment")
	if err != nil {
		return Segment{}, err
	}
	f := strings.Fields(v)
	if len(f) != 3 {
		return Segment{}, c.fail("bad segment line %q", v)
	}
	count, cerr := strconv.ParseUint(f[1], 10, 31)
	crc, kerr := strconv.ParseUint(f[2], 16, 32)
	if cerr != nil || kerr != nil || !validSegmentName(f[0]) {
		return Segment{}, c.fail("bad segment line %q", v)
	}
	return Segment{Name: f[0], Count: int(count), CRC: uint32(crc)}, nil
}

// validSegmentName admits only plain file names: a head never points
// outside its own directory.
func validSegmentName(name string) bool {
	return name != "" && name[0] != '.' && filepath.Base(name) == name && !strings.ContainsAny(name, `/\`)
}

// alarms reads the first-alarm ledger subsection.
func (c *cursor) alarms() ([]Alarm, error) {
	n, err := c.count("alarms", 16)
	if err != nil {
		return nil, err
	}
	out := make([]Alarm, 0, n)
	for i := 0; i < n; i++ {
		l, ok := c.line()
		if !ok {
			return nil, c.fail("truncated at alarm %d of %d", i, n)
		}
		var node string
		var slot, rank, bank int
		var at int64
		if k, serr := fmt.Sscanf(string(l), "alarm %s %d %d %d %d", &node, &slot, &rank, &bank, &at); serr != nil || k != 5 {
			return nil, c.fail("alarm %d: bad line %q", i, l)
		}
		id, perr := topology.ParseNodeID(node)
		if perr != nil {
			return nil, c.fail("alarm %d: %v", i, perr)
		}
		if !topology.Slot(slot).Valid() {
			return nil, c.fail("alarm %d: slot %d out of range", i, slot)
		}
		out = append(out, Alarm{
			Key: core.BankKey{Node: id, Slot: topology.Slot(slot), Rank: int8(rank), Bank: int8(bank)},
			At:  at,
		})
	}
	return out, nil
}

// sites parses a "sites N" list of "site <id>" sections, calling fn for
// each section body, and requires the image to end after the last.
func (c *cursor) sites(fn func(id string) error) error {
	n, err := c.count("sites", 8)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		c.site = ""
		id, err := c.field("site")
		if err != nil || id == "" || strings.ContainsAny(id, " \t") {
			return fmt.Errorf("statestore: state file: bad site header at section %d (byte %d)", i, c.off)
		}
		if seen[id] {
			return fmt.Errorf("statestore: state file: duplicate site %s", id)
		}
		seen[id] = true
		c.site = id
		if err := fn(id); err != nil {
			return err
		}
	}
	return c.end()
}

// end requires the image to be fully consumed.
func (c *cursor) end() error {
	if c.off != len(c.data) {
		return fmt.Errorf("statestore: state file: %d trailing bytes at byte %d", len(c.data)-c.off, c.off)
	}
	return nil
}
