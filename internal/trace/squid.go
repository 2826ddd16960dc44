package trace

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"ndnprivacy/internal/ndn"
)

// Squid/IRCache native access-log support. The paper replayed an IRCache
// (NLANR) proxy trace that is not redistributable; this parser lets
// anyone holding such a trace — or any Squid-format access log — replay
// the real thing through the same evaluation pipeline that the synthetic
// generator feeds. Round-trip support (WriteSquidLog) also lets the
// synthetic workload be exported for use by other tools.
//
// The native format is whitespace-separated:
//
//	timestamp elapsed client action/code size method URL ident hierarchy/host type
//
// e.g.
//
//	1188637445.123    95 203.0.113.7 TCP_MISS/200 4512 GET http://example.com/a/b - DIRECT/198.51.100.2 text/html

// ErrBadLogLine reports an unparsable log line (with its line number).
var ErrBadLogLine = errors.New("trace: malformed squid log line")

// SquidOptions controls log-to-trace conversion.
type SquidOptions struct {
	// PrivateFraction assigns each URL to the private partition with
	// this probability (deterministic per URL+Seed), mirroring the
	// paper's random division of content.
	PrivateFraction float64
	// Seed drives the privacy assignment.
	Seed int64
}

// SquidReader streams Requests parsed from a Squid/IRCache access log.
type SquidReader struct {
	scanner *bufio.Scanner
	opts    SquidOptions
	users   map[string]int
	line    int
	epoch   float64
	started bool
	objects map[string]int
}

// NewSquidReader wraps r.
func NewSquidReader(r io.Reader, opts SquidOptions) *SquidReader {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64*1024), 1024*1024)
	return &SquidReader{
		scanner: scanner,
		opts:    opts,
		users:   make(map[string]int),
		objects: make(map[string]int),
	}
}

// Next parses the next request. It returns io.EOF at end of log; blank
// and comment lines are skipped.
func (sr *SquidReader) Next() (Request, error) {
	for sr.scanner.Scan() {
		sr.line++
		raw := strings.TrimSpace(sr.scanner.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		req, err := sr.parse(raw)
		if err != nil {
			return Request{}, fmt.Errorf("%w: line %d: %v", ErrBadLogLine, sr.line, err)
		}
		return req, nil
	}
	if err := sr.scanner.Err(); err != nil {
		return Request{}, err
	}
	return Request{}, io.EOF
}

func (sr *SquidReader) parse(line string) (Request, error) {
	fields := strings.Fields(line)
	if len(fields) < 7 {
		return Request{}, fmt.Errorf("%d fields, need at least 7", len(fields))
	}
	ts, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Request{}, fmt.Errorf("timestamp %q: %v", fields[0], err)
	}
	if !sr.started {
		sr.epoch = ts
		sr.started = true
	}
	if ts < sr.epoch {
		ts = sr.epoch // clamp clock regressions
	}
	client := fields[2]
	url := fields[6]
	name, err := URLToName(url)
	if err != nil {
		return Request{}, err
	}
	user, known := sr.users[client]
	if !known {
		user = len(sr.users)
		sr.users[client] = user
	}
	obj, known := sr.objects[url]
	if !known {
		obj = len(sr.objects)
		sr.objects[url] = obj
	}
	return Request{
		At:      time.Duration((ts - sr.epoch) * float64(time.Second)),
		User:    user,
		Name:    name,
		Private: sr.urlIsPrivate(url),
		Object:  obj,
	}, nil
}

// urlIsPrivate deterministically assigns the privacy partition per URL.
func (sr *SquidReader) urlIsPrivate(url string) bool {
	if sr.opts.PrivateFraction <= 0 {
		return false
	}
	if sr.opts.PrivateFraction >= 1 {
		return true
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(url))
	var seedBuf [8]byte
	for i := 0; i < 8; i++ {
		seedBuf[i] = byte(sr.opts.Seed >> (8 * i))
	}
	_, _ = h.Write(seedBuf[:])
	return float64(h.Sum64())/float64(math.MaxUint64) < sr.opts.PrivateFraction
}

// Users returns how many distinct clients have been seen so far.
func (sr *SquidReader) Users() int { return len(sr.users) }

// Objects returns how many distinct URLs have been seen so far.
func (sr *SquidReader) Objects() int { return len(sr.objects) }

// URLToName maps an HTTP URL to a hierarchical NDN name:
// http://host:port/a/b?q → /web/host/a/b/q. Scheme and port are dropped;
// empty path maps to the host prefix alone.
func URLToName(url string) (ndn.Name, error) {
	rest := url
	if idx := strings.Index(rest, "://"); idx >= 0 {
		rest = rest[idx+3:]
	}
	if rest == "" {
		return ndn.Name{}, fmt.Errorf("empty URL %q", url)
	}
	host := rest
	path := ""
	if idx := strings.IndexByte(rest, '/'); idx >= 0 {
		host, path = rest[:idx], rest[idx+1:]
	}
	if hostOnly, _, found := strings.Cut(host, ":"); found {
		host = hostOnly
	}
	if host == "" {
		return ndn.Name{}, fmt.Errorf("URL %q has no host", url)
	}
	name := ndn.MustParseName("/web").AppendString(host)
	for _, segment := range strings.FieldsFunc(path, func(r rune) bool { return r == '/' || r == '?' || r == '&' }) {
		name = name.AppendString(segment)
	}
	return name, nil
}

// ReplaySquidLog streams a Squid log through the evaluation pipeline and
// returns the same statistics as Replay.
func ReplaySquidLog(r io.Reader, opts SquidOptions, cfg ReplayConfig) (ReplayStats, error) {
	if cfg.Manager == nil {
		return ReplayStats{}, errors.New("trace: replay requires a cache manager")
	}
	reader := NewSquidReader(r, opts)
	return replayStream(func() (Request, bool, error) {
		req, err := reader.Next()
		if errors.Is(err, io.EOF) {
			return Request{}, false, nil
		}
		if err != nil {
			return Request{}, false, err
		}
		return req, true, nil
	}, cfg)
}

// WriteSquidLog exports a generator's synthetic trace in Squid native
// format, so external tooling can consume it.
func WriteSquidLog(w io.Writer, gen *Generator) error {
	if gen == nil {
		return errors.New("trace: writer requires a generator")
	}
	gen.Reset()
	bw := bufio.NewWriter(w)
	for {
		req, more := gen.Next()
		if !more {
			break
		}
		// Reconstruct a URL from the object name: /web/siteN/objM →
		// http://siteN/objM.
		host, path := nameToURLParts(req.Name)
		ts := float64(req.At) / float64(time.Second)
		if _, err := fmt.Fprintf(bw, "%.3f %6d 10.0.%d.%d TCP_MISS/200 1024 GET http://%s/%s - DIRECT/192.0.2.1 text/html\n",
			ts, 50, req.User/250, req.User%250, host, path); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func nameToURLParts(name ndn.Name) (host, path string) {
	switch {
	case name.Len() >= 3:
		comps := make([]string, 0, name.Len()-2)
		for i := 2; i < name.Len(); i++ {
			comps = append(comps, string(name.ComponentRef(i)))
		}
		return string(name.ComponentRef(1)), strings.Join(comps, "/")
	case name.Len() == 2:
		return string(name.ComponentRef(1)), ""
	default:
		return "unknown", ""
	}
}
