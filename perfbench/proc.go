package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one astrad process under test.
type daemon struct {
	cmd   *exec.Cmd
	start time.Time
	addr  string
	base  string // http://addr

	mu       sync.Mutex
	restored map[string]string // fields of the "msg=restored" log line
	tail     []string          // last stderr lines, for diagnostics
	logDone  chan struct{}

	exited   chan struct{}
	waitErr  error
	maxRSSKB int64
}

// command builds a child process of the benchmark that the kernel kills
// if the benchmark itself dies, so no program under test outlives a run.
func (b *bench) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startAstrad execs astrad with args plus an ephemeral listen address
// and returns once the daemon has logged its address. start is taken
// just before exec.
func (b *bench) startAstrad(args ...string) (*daemon, error) {
	args = append(append([]string{}, args...), "-listen", "127.0.0.1:0")
	d := &daemon{
		cmd:     b.command("astrad", args...),
		logDone: make(chan struct{}),
		exited:  make(chan struct{}),
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go d.readLog(stderr, addrCh)
	go func() {
		<-d.logDone
		d.waitErr = d.cmd.Wait()
		if ps := d.cmd.ProcessState; ps != nil {
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				d.maxRSSKB = int64(ru.Maxrss)
			}
		}
		close(d.exited)
	}()
	select {
	case d.addr = <-addrCh:
		d.base = "http://" + d.addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("astrad exited before listening: %v\n%s", d.waitErr, d.logTail())
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, errors.New("astrad did not start listening within 120s")
	}
}

// readLog consumes astrad's structured stderr, picking out the listen
// address and the restore summary. Request logs are discarded as they
// arrive so the pipe never backs up into the daemon.
func (d *daemon) readLog(r io.Reader, addrCh chan<- string) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := listenRE.FindStringSubmatch(line); m != nil {
			select {
			case addrCh <- m[1]:
			default:
			}
		}
		d.mu.Lock()
		if strings.Contains(line, "msg=restored ") {
			d.restored = logFields(line)
		}
		if !strings.Contains(line, "msg=request") {
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
		}
		d.mu.Unlock()
	}
	_, _ = io.Copy(io.Discard, r)
}

// logFields splits a slog text line into key=value fields.
func logFields(line string) map[string]string {
	f := map[string]string{}
	for _, kv := range strings.Fields(line) {
		if k, v, ok := strings.Cut(kv, "="); ok {
			f[k] = v
		}
	}
	return f
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// restoredField returns a numeric field of the restore log line (0 when
// the daemon restored nothing).
func (d *daemon) restoredField(key string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, _ := strconv.ParseInt(d.restored[key], 10, 64)
	return n
}

// stop signals the daemon and waits for it to exit, returning the time
// from signal to exit. A SIGTERM'd astrad must exit 0.
func (d *daemon) stop(sig syscall.Signal) (time.Duration, error) {
	t := time.Now()
	if err := d.cmd.Process.Signal(sig); err != nil {
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(120 * time.Second):
		d.kill()
		return 0, errors.New("astrad did not exit within 120s of the signal")
	}
	took := time.Since(t)
	if sig == syscall.SIGTERM && d.waitErr != nil {
		return took, fmt.Errorf("astrad exit after SIGTERM: %v\n%s", d.waitErr, d.logTail())
	}
	return took, nil
}

// kill ends the daemon without ceremony and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// rssMB is the daemon's peak resident set, known once it has exited.
func (d *daemon) rssMB() float64 { return float64(d.maxRSSKB) / 1024 }

// httpClient is the benchmark's only HTTP client: one process, and no
// more connections than the machine has CPUs.
var httpClient = &http.Client{
	Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression:  true,
	},
	Timeout: 60 * time.Second,
}

// get fetches url, returning the status code, the ETag and the body.
func get(url, ifNoneMatch string) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", nil, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body, nil
}

// getJSON fetches url and decodes a 200 response into v.
func getJSON(url string, v any) error {
	code, _, body, err := get(url, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, code)
	}
	return json.Unmarshal(body, v)
}

// healthz is the part of /healthz the benchmark reads.
type healthz struct {
	Records int `json:"records"`
	Shed    int `json:"shed"`
}

// visSample is one /healthz reading: the record count seen at a time.
type visSample struct {
	at      time.Time
	records int
}

// waitRecords polls /healthz every period until it shows want records,
// returning every reading (the first one is the first successful
// /healthz). More records than want means duplicated input and is an
// error; so is timing out or the daemon exiting. Each /healthz that
// finds the engine moved rebuilds the served view, so polling much
// faster than an operator would adds load of its own.
func (d *daemon) waitRecords(want int, period, timeout time.Duration) ([]visSample, error) {
	deadline := time.Now().Add(timeout)
	var samples []visSample
	for {
		var h healthz
		err := getJSON(d.base+"/healthz", &h)
		now := time.Now()
		if err == nil {
			samples = append(samples, visSample{now, h.Records})
			if h.Records == want {
				return samples, nil
			}
			if h.Records > want || h.Shed > 0 {
				return samples, fmt.Errorf("/healthz shows %d records (shed %d), want %d", h.Records, h.Shed, want)
			}
		}
		select {
		case <-d.exited:
			return samples, fmt.Errorf("astrad exited: %v\n%s", d.waitErr, d.logTail())
		default:
		}
		if now.After(deadline) {
			return samples, fmt.Errorf("/healthz did not reach %d records within %v (last err %v)", want, timeout, err)
		}
		time.Sleep(period)
	}
}

// scrape reads the named series from /metrics.
func (d *daemon) scrape(names ...string) (map[string]float64, error) {
	code, _, body, err := get(d.base+"/metrics", "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		for _, n := range names {
			if rest, ok := strings.CutPrefix(line, n+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err == nil {
					out[n] = v
				}
			}
		}
	}
	return out, nil
}
