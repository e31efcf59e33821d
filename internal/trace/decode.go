package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rrnorm/internal/core"
)

// This file is the input half of the package: where Observer serializes a
// simulation's event stream, Decoder deserializes a job trace — one job per
// line, NDJSON or CSV — into a core.JobSource both engines consume
// natively. Decoding is strictly incremental (one line of lookahead), so a
// 1e8-job trace replays in memory bounded by the schedule's alive set, and
// strictly validated: every malformed line is rejected with a DecodeError
// naming the line, the field and the reason rather than a best-effort skip.
// Each line is parsed in place in the scanner's buffer, so the streaming
// path makes no allocation per job.

// Format selects a job-trace wire format.
type Format uint8

const (
	// FormatNDJSON is newline-delimited JSON: one object per line with
	// keys "id" (integer, required), "release" (number, required), "size"
	// (number, required) and "weight" (number, optional; 0 or absent means
	// the default weight 1). Keys are exactly these four lowercase names,
	// unescaped, each at most once; a null value reads as absent; only
	// JSON whitespace may separate tokens. Anything else — an unknown,
	// case-folded, escaped or repeated key, a non-number value, bytes
	// after the object — is rejected.
	FormatNDJSON Format = iota
	// FormatCSV is comma-separated with a mandatory header row naming a
	// permutation of id,release,size[,weight]; fields are trimmed of
	// surrounding spaces.
	FormatCSV
)

// String returns the canonical format name ("ndjson", "csv").
func (f Format) String() string {
	if f == FormatCSV {
		return "csv"
	}
	return "ndjson"
}

// ParseFormat resolves a format name as accepted by rrsim -format:
// "ndjson" (alias "jsonl") or "csv".
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "ndjson", "jsonl":
		return FormatNDJSON, nil
	case "csv":
		return FormatCSV, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (want ndjson or csv)", name)
}

// DecodeError is a structured trace-decoding failure: the 1-based line it
// occurred on, the offending field ("" when the whole line is at fault) and
// a human-readable reason. It unwraps to core.ErrBadSource, so engine
// callers can classify decode failures with a single errors.Is.
type DecodeError struct {
	Line   int
	Field  string
	Reason string
}

//rrlint:coldpath decode-failure rendering; a DecodeError ends the replay
func (e *DecodeError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("trace: line %d: %s", e.Line, e.Reason)
	}
	return fmt.Sprintf("trace: line %d: field %q: %s", e.Line, e.Field, e.Reason)
}

// Unwrap makes errors.Is(err, core.ErrBadSource) true for every DecodeError.
func (e *DecodeError) Unwrap() error { return core.ErrBadSource }

// DecodeOptions configures a Decoder.
type DecodeOptions struct {
	// Format selects the wire format; the zero value is NDJSON.
	Format Format
	// Sort opts into buffering the entire trace and sorting it by
	// (Release, ID) before serving, making out-of-order releases legal at
	// the cost of streaming: memory becomes O(n) instead of O(1). Without
	// it a non-monotone release is a DecodeError naming the offending
	// line, because silently reordering would change which schedule the
	// engines simulate.
	Sort bool
}

// maxBitsetID bounds the dense duplicate-ID bitset: ids in [0, maxBitsetID)
// cost one bit each (2 MiB at the cap — sequential ids, the common case,
// stay cheap at any scale), ids outside it fall back to a sparse map whose
// size tracks how many such ids the trace actually uses.
const maxBitsetID = 1 << 24

// minSeenWords is the bitset's first allocation (8 KiB, ids below 65536);
// it doubles from there, so a trace's id bookkeeping costs O(log max id)
// allocations in all and none per job.
const minSeenWords = 1024

// field names one trace column.
type field uint8

const (
	fieldID field = iota
	fieldRelease
	fieldSize
	fieldWeight
)

// fieldNames are the column and key names, indexed by field.
var fieldNames = [...]string{"id", "release", "size", "weight"}

// Decoder reads a job trace line by line, implementing core.JobSource. It
// enforces the full JobSource contract at the source: scalar validity
// (Instance.Validate's rules), unique ids, and release monotonicity (or
// Sort). Errors are latched — after the first failure Next returns it
// forever.
type Decoder struct {
	opts DecodeOptions
	sc   *bufio.Scanner
	line int // 1-based number of the last line read

	cols   []field  // CSV: columns in header order
	seen   []uint64 // dense id bitset for ids in [0, maxBitsetID)
	sparse map[int]bool

	prevRelease float64
	prevLine    int
	any         bool

	sorted   []core.Job // Sort mode: the buffered, sorted trace
	sortedAt int
	buffered bool

	err  error
	done bool
}

// NewDecoder returns a Decoder reading a job trace from r. The returned
// decoder is a core.JobSource; hand it to core.RunStream / fast.RunStream
// (or SimulateStream) to replay the trace.
func NewDecoder(r io.Reader, opts DecodeOptions) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	return &Decoder{opts: opts, sc: sc}
}

// Next implements core.JobSource.
//
//rrlint:hotpath
func (d *Decoder) Next() (core.Job, bool, error) {
	if d.err != nil || d.done {
		return core.Job{}, false, d.err
	}
	if d.opts.Sort {
		if !d.buffered {
			if err := d.bufferAll(); err != nil {
				d.err = err
				return core.Job{}, false, err
			}
		}
		if d.sortedAt >= len(d.sorted) {
			d.done = true
			return core.Job{}, false, nil
		}
		j := d.sorted[d.sortedAt]
		d.sortedAt++
		return j, true, nil
	}
	j, ok, err := d.next()
	if err != nil {
		d.err = err
		return core.Job{}, false, err
	}
	if !ok {
		d.done = true
		return core.Job{}, false, nil
	}
	if d.any && j.Release < d.prevRelease {
		d.err = d.errorf("release",
			"release %v is earlier than release %v on line %d (trace must be release-ordered; opt into buffering with Sort / rrsim -sort)",
			j.Release, d.prevRelease, d.prevLine)
		return core.Job{}, false, d.err
	}
	d.any, d.prevRelease, d.prevLine = true, j.Release, d.line
	return j, true, nil
}

// bufferAll reads and validates the whole trace, then sorts it by
// (Release, ID) — the Sort opt-in path.
//
//rrlint:coldpath one-shot buffering at replay setup; materializing the trace is the Sort contract
func (d *Decoder) bufferAll() error {
	for {
		j, ok, err := d.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		d.sorted = append(d.sorted, j)
	}
	sort.Slice(d.sorted, func(a, b int) bool {
		ja, jb := d.sorted[a], d.sorted[b]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		return ja.ID < jb.ID
	})
	d.buffered = true
	return nil
}

// next reads the next non-blank, non-comment line and decodes one job,
// checking everything except release order (the caller's concern, because
// Sort legitimizes disorder).
func (d *Decoder) next() (core.Job, bool, error) {
	for {
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				return core.Job{}, false, &DecodeError{Line: d.line + 1, Reason: "read failed: " + err.Error()}
			}
			return core.Job{}, false, nil
		}
		d.line++
		raw := bytes.TrimSpace(d.sc.Bytes())
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		var j core.Job
		var err *DecodeError
		switch {
		case d.opts.Format != FormatCSV:
			j, err = d.parseNDJSON(raw)
		case d.cols == nil:
			if err := d.parseHeader(string(raw)); err != nil {
				return core.Job{}, false, err
			}
			continue
		default:
			j, err = d.parseCSV(raw)
		}
		if err == nil {
			err = d.checkJob(j)
		}
		if err != nil {
			return core.Job{}, false, err
		}
		return j, true, nil
	}
}

// checkJob applies Instance.Validate's scalar rules plus the unique-id
// rule, pinned to the current line.
func (d *Decoder) checkJob(j core.Job) *DecodeError {
	if !(j.Size >= 0) || math.IsInf(j.Size, 0) {
		return d.errorf("size", "negative or non-finite size %v", j.Size)
	}
	if j.Release < 0 || math.IsInf(j.Release, 0) || math.IsNaN(j.Release) {
		return d.errorf("release", "invalid release %v", j.Release)
	}
	if j.Weight < 0 || math.IsInf(j.Weight, 0) || math.IsNaN(j.Weight) {
		return d.errorf("weight", "invalid weight %v", j.Weight)
	}
	if d.markID(j.ID) {
		return d.errorf("id", "duplicate job id %d", j.ID)
	}
	return nil
}

// markID records id as seen and reports whether it already was. Dense
// non-negative ids use the bitset; outliers use the sparse map.
func (d *Decoder) markID(id int) bool {
	if id >= 0 && id < maxBitsetID {
		w, b := id/64, uint(id%64)
		if w >= len(d.seen) {
			d.growSeen(w)
		}
		if d.seen[w]&(1<<b) != 0 {
			return true
		}
		d.seen[w] |= 1 << b
		return false
	}
	if d.sparse == nil {
		//rrlint:ignore hotalloc lazy one-time fallback for sparse IDs; the dense bitset path allocates nothing
		d.sparse = make(map[int]bool)
	}
	if d.sparse[id] {
		return true
	}
	d.sparse[id] = true
	return false
}

// growSeen extends the id bitset to cover word w, at least doubling it.
//
//rrlint:coldpath amortized growth: O(log max id) calls per trace, none per job in steady state
func (d *Decoder) growSeen(w int) {
	s := make([]uint64, max(w+1, 2*len(d.seen), minSeenWords))
	copy(s, d.seen)
	d.seen = s
}

// litNull is the JSON null literal.
var litNull = []byte("null")

// parseNDJSON decodes one trimmed NDJSON line in place (FormatNDJSON's
// grammar). Numbers are checked against the JSON number grammar here and
// converted by the strconv calls encoding/json makes for int and float64
// fields, so a line decodes to the bits encoding/json would give it. Every
// grammar violation is a whole-line "invalid JSON" error; a well-formed
// line missing a required key names that field.
func (d *Decoder) parseNDJSON(b []byte) (core.Job, *DecodeError) {
	var j core.Job
	var seen, set uint8 // bit f: key f present / present and not null
	i := skipWS(b, 0)
	switch {
	case bytes.HasPrefix(b[i:], litNull):
		// encoding/json unmarshals a top-level null into a struct as a
		// no-op; the line reads as an object with no keys.
		i += len(litNull)
	case i < len(b) && b[i] == '{':
		i = skipWS(b, i+1)
		if i < len(b) && b[i] == '}' {
			i++
			break
		}
		for {
			if i >= len(b) || b[i] != '"' {
				return j, d.syntaxErr(b, i, "want a quoted key")
			}
			k := i + 1
			for k < len(b) && b[k] != '"' && b[k] != '\\' {
				k++
			}
			if k >= len(b) || b[k] == '\\' {
				return j, d.syntaxErr(b, i, "want an unescaped key")
			}
			f, ok := lookupKey(b[i+1 : k])
			if !ok {
				return j, d.errorf("", "invalid JSON: unknown key %q (keys are id, release, size and weight)", b[i+1:k])
			}
			if seen&(1<<f) != 0 {
				return j, d.errorf("", "invalid JSON: duplicate key %q", b[i+1:k])
			}
			seen |= 1 << f
			i = skipWS(b, k+1)
			if i >= len(b) || b[i] != ':' {
				return j, d.syntaxErr(b, i, "want ':' after key")
			}
			i = skipWS(b, i+1)
			if bytes.HasPrefix(b[i:], litNull) {
				i += len(litNull)
			} else {
				end := scanNumber(b, i)
				if end < 0 {
					return j, d.syntaxErr(b, i, "want a number or null")
				}
				if !setField(&j, f, b[i:end]) {
					return j, d.errorf("", "invalid JSON: %s value %s does not convert (id must be an int, the others float64)", fieldNames[f], b[i:end])
				}
				set |= 1 << f
				i = end
			}
			i = skipWS(b, i)
			if i < len(b) && b[i] == ',' {
				i = skipWS(b, i+1)
				continue
			}
			if i < len(b) && b[i] == '}' {
				i++
				break
			}
			return j, d.syntaxErr(b, i, "want ',' or '}'")
		}
	default:
		return j, d.syntaxErr(b, i, "want an object")
	}
	// Trailing tokens after the object ("{...} {...}" on one line) would
	// silently drop jobs if ignored.
	if skipWS(b, i) != len(b) {
		return j, d.errorf("", "trailing data after JSON object")
	}
	for _, f := range [...]field{fieldID, fieldRelease, fieldSize} {
		if set&(1<<f) == 0 {
			return j, d.errorf(fieldNames[f], "missing required field")
		}
	}
	return j, nil
}

// skipWS returns the index of the first non-JSON-whitespace byte of b at
// or after i.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// lookupKey maps a raw NDJSON key to its field; only the exact lowercase
// names match.
func lookupKey(k []byte) (field, bool) {
	for f, name := range fieldNames {
		if string(k) == name {
			return field(f), true
		}
	}
	return 0, false
}

// scanNumber returns the end of the JSON number starting at b[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? (RFC 8259 §6) — or -1
// when none starts there. It stops at the first byte the grammar cannot
// take; the caller checks what follows.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); b[i-1] == '.' {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = skipDigits(b, i); i == start {
			return -1
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// setField stores the number literal lit into field f of j, reporting
// false when it does not convert (an id that is not an integer in int's
// range, a float beyond float64's range).
func setField(j *core.Job, f field, lit []byte) bool {
	if f == fieldID {
		id, err := strconv.Atoi(string(lit))
		j.ID = id
		return err == nil
	}
	x, err := strconv.ParseFloat(string(lit), 64)
	switch f {
	case fieldRelease:
		j.Release = x
	case fieldSize:
		j.Size = x
	case fieldWeight:
		j.Weight = x
	}
	return err == nil
}

// parseHeader validates the CSV header: a permutation of id,release,size
// with weight optional, no duplicates, no unknown columns.
//
//rrlint:coldpath runs once per trace, on the header line only
func (d *Decoder) parseHeader(line string) error {
	names := strings.Split(line, ",")
	cols := make([]field, len(names))
	var have uint8
	for i := range names {
		c := strings.ToLower(strings.TrimSpace(names[i]))
		f := slices.Index(fieldNames[:], c)
		if f < 0 {
			return d.errorf(c, "unknown column (want id,release,size[,weight])")
		}
		if have&(1<<f) != 0 {
			return d.errorf(c, "duplicate column")
		}
		have |= 1 << f
		cols[i] = field(f)
	}
	for _, f := range [...]field{fieldID, fieldRelease, fieldSize} {
		if have&(1<<f) == 0 {
			return d.errorf(fieldNames[f], "missing required column")
		}
	}
	d.cols = cols
	return nil
}

// commaSep is the CSV field separator.
var commaSep = []byte{','}

// parseCSV decodes one trimmed CSV data line in place against the header's
// column order.
func (d *Decoder) parseCSV(line []byte) (core.Job, *DecodeError) {
	var j core.Job
	if n := bytes.Count(line, commaSep) + 1; n != len(d.cols) {
		return j, d.errorf("", "%d fields, header has %d columns", n, len(d.cols))
	}
	rest := line
	for _, f := range d.cols {
		v := rest
		if k := bytes.IndexByte(rest, ','); k >= 0 {
			v, rest = rest[:k], rest[k+1:]
		}
		if v = bytes.TrimSpace(v); !setField(&j, f, v) {
			kind := "number"
			if f == fieldID {
				kind = "integer"
			}
			return j, d.errorf(fieldNames[f], "invalid %s %q", kind, v)
		}
	}
	return j, nil
}

// errorf builds the DecodeError for the current line, naming field name
// ("" for the whole line). Formatting allocates, so every error the
// streaming path returns is built here, off the hot path.
//
//rrlint:coldpath decode failure; a DecodeError ends the replay
func (d *Decoder) errorf(name, format string, args ...any) *DecodeError {
	return &DecodeError{Line: d.line, Field: name, Reason: fmt.Sprintf(format, args...)}
}

// syntaxErr is the "invalid JSON" error for a line b that breaks the
// grammar at byte at, where want was expected.
//
//rrlint:coldpath decode failure; a DecodeError ends the replay
func (d *Decoder) syntaxErr(b []byte, at int, want string) *DecodeError {
	return d.errorf("", "invalid JSON: %s at byte %d of %d, near %q", want, at+1, len(b), b[at:min(at+16, len(b))])
}
