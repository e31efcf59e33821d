package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rrnorm/internal/check"
	"rrnorm/internal/core"
)

// The encoding/json and strings.Split line parsers and the
// encoding/json-based Encode that the byte-level decoder and encoder
// replaced, kept as differential oracles: FuzzDecodeLine and
// TestEncodeMatchesOracle hold the production code to their output.

// ndRecord mirrors one NDJSON line; pointer fields distinguish absent from
// zero so required fields can be enforced.
type ndRecord struct {
	ID      *int     `json:"id"`
	Release *float64 `json:"release"`
	Size    *float64 `json:"size"`
	Weight  *float64 `json:"weight"`
}

func oracleNDJSON(line int, raw []byte) (core.Job, *DecodeError) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rec ndRecord
	if err := dec.Decode(&rec); err != nil {
		return core.Job{}, &DecodeError{Line: line, Reason: "invalid JSON: " + err.Error()}
	}
	if dec.More() {
		return core.Job{}, &DecodeError{Line: line, Reason: "trailing data after JSON object"}
	}
	if rec.ID == nil {
		return core.Job{}, &DecodeError{Line: line, Field: "id", Reason: "missing required field"}
	}
	if rec.Release == nil {
		return core.Job{}, &DecodeError{Line: line, Field: "release", Reason: "missing required field"}
	}
	if rec.Size == nil {
		return core.Job{}, &DecodeError{Line: line, Field: "size", Reason: "missing required field"}
	}
	j := core.Job{ID: *rec.ID, Release: *rec.Release, Size: *rec.Size}
	if rec.Weight != nil {
		j.Weight = *rec.Weight
	}
	return j, nil
}

func oracleCSV(cols []string, line int, s string) (core.Job, *DecodeError) {
	fields := strings.Split(s, ",")
	if len(fields) != len(cols) {
		return core.Job{}, &DecodeError{Line: line, Reason: fmt.Sprintf("%d fields, header has %d columns", len(fields), len(cols))}
	}
	var j core.Job
	for i, col := range cols {
		v := strings.TrimSpace(fields[i])
		switch col {
		case "id":
			id, err := strconv.Atoi(v)
			if err != nil {
				return core.Job{}, &DecodeError{Line: line, Field: "id", Reason: fmt.Sprintf("invalid integer %q", v)}
			}
			j.ID = id
		default:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return core.Job{}, &DecodeError{Line: line, Field: col, Reason: fmt.Sprintf("invalid number %q", v)}
			}
			switch col {
			case "release":
				j.Release = f
			case "size":
				j.Size = f
			case "weight":
				j.Weight = f
			}
		}
	}
	return j, nil
}

func oracleEncode(w io.Writer, jobs []core.Job, f Format) error {
	bw := bufio.NewWriter(w)
	if f == FormatCSV {
		if _, err := bw.WriteString("id,release,size,weight\n"); err != nil {
			return err
		}
		for _, j := range jobs {
			bw.WriteString(strconv.Itoa(j.ID))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(j.Release, 'g', -1, 64))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(j.Size, 'g', -1, 64))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(j.Weight, 'g', -1, 64))
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		return bw.Flush()
	}
	enc := json.NewEncoder(bw)
	for _, j := range jobs {
		rec := struct {
			ID      int     `json:"id"`
			Release float64 `json:"release"`
			Size    float64 `json:"size"`
			Weight  float64 `json:"weight,omitempty"`
		}{j.ID, j.Release, j.Size, j.Weight}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// outsideGrammar is the strictness predicate: it reports whether a line
// the NDJSON oracle parses as a value leaves the grammar the byte-level
// parser promises (FormatNDJSON) — an escaped key, a key that matches a
// field only by case folding, a repeated key, or bytes after the value.
// These are the only lines the parser may reject where the oracle accepts
// them or rejects them naming a different field.
func outsideGrammar(raw []byte) bool {
	if bytes.IndexByte(raw, '\\') >= 0 {
		return true // a backslash can only sit in a (then escaped) key
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var val json.RawMessage
	if dec.Decode(&val) != nil {
		return false
	}
	if len(bytes.TrimLeft(raw[dec.InputOffset():], " \t\r\n")) > 0 {
		return true
	}
	dec = json.NewDecoder(bytes.NewReader(val))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		for _, name := range fieldNames {
			if strings.EqualFold(key, name) {
				if key != name || seen[name] {
					return true
				}
				seen[name] = true
			}
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return false
		}
	}
	return false
}

// sameJob is bit-for-bit job equality (== would conflate 0 and -0).
func sameJob(a, b core.Job) bool {
	return a.ID == b.ID &&
		math.Float64bits(a.Release) == math.Float64bits(b.Release) &&
		math.Float64bits(a.Size) == math.Float64bits(b.Size) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
}

// reasonClass is the fixed fragment a DecodeError reason starts with.
func reasonClass(reason string) string {
	for _, frag := range []string{"invalid JSON", "trailing data", "missing required field"} {
		if strings.HasPrefix(reason, frag) {
			return frag
		}
	}
	return reason
}

// csvHeaders are the column orders FuzzDecodeLine decodes CSV lines under.
var csvHeaders = [][]string{
	{"id", "release", "size", "weight"},
	{"size", "id", "release"},
}

// FuzzDecodeLine is the differential test of the byte-level line parsers.
// For every line, NDJSON: the parser and the encoding/json oracle both
// accept it with bit-identical jobs, or both reject it on the same line,
// naming the same field, with the same reason class — or the parser
// rejects it and the line is outsideGrammar. CSV: the parser and the
// strings.Split oracle agree exactly, reason text included.
func FuzzDecodeLine(f *testing.F) {
	for _, s := range []string{
		`{"id":0,"release":0,"size":1}`,
		`{"id":1,"release":0.5,"size":1.25,"weight":3}`,
		`{"id":-0,"release":-0,"size":0}`,
		`{"id":0,"release":1e400,"size":1}`,
		`{"id":0,"release":1e-400,"size":5e-324}`,
		`{"id":1.0,"release":0,"size":1}`,
		`{"id":1e2,"release":0,"size":1}`,
		`{"id":12345678901234567890,"release":0,"size":1}`,
		`{"id":-9223372036854775808,"release":0,"size":1}`,
		`{"id":+1,"release":0,"size":1}`,
		`{"id":1,"release":0x1p3,"size":1}`,
		`{"id":1,"release":NaN,"size":1}`,
		`{"id":1,"release":0,"size":Infinity}`,
		`{"id":01,"release":0,"size":1}`,
		`{"id":1,"release":.5,"size":1}`,
		`{"id":1,"release":5.,"size":1}`,
		`{"id":1,"release":1E+2,"size":1e-2}`,
		"{\t\"id\" :\r1 ,\"release\":0,\"size\":1\t}",
		"{\"id\":1,\v\"release\":0,\"size\":1}",
		"{\"id\":1,\u00a0\"release\":0,\"size\":1}",
		"\u00a0{\"id\":1,\"release\":0,\"size\":1}\u00a0",
		`{"id":null,"release":0,"size":1}`,
		`{"id":1,"release":0,"size":1,"weight":null}`,
		`null`,
		`nullx`,
		`null}`,
		`{}`,
		`{"":1}`,
		`{"id":0,"release":0,"size":1} }`,
		`{"id":0,"release":0,"size":1}]`,
		`{"id":0,"release":0,"size":1} {"id":1}`,
		`{"id":0,"id":5,"release":0,"size":1}`,
		`{"ID":0,"release":0,"size":1}`,
		`{"\u0069d":0,"release":0,"size":1}`,
		`{"ſize":1,"id":0,"release":0}`,
		`{"id":"1","release":0,"size":1}`,
		`{"id":true,"release":[],"size":{}}`,
		`{"id":0,"release":0,"size":1,}`,
		`[1,2,3]`,
		"0,0,1,1",
		" 1 , 2.5 ,3,",
		"+1,0x1p3,Inf,NaN",
		"1_000,1e400,-0,",
		"a,b",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for n, line := range bytes.Split(data, []byte("\n")) {
			raw := bytes.TrimSpace(line)
			if len(raw) == 0 || raw[0] == '#' {
				continue
			}
			checkNDJSONLine(t, n+1, raw)
			for _, cols := range csvHeaders {
				checkCSVLine(t, n+1, cols, raw)
			}
		}
	})
}

func checkNDJSONLine(t *testing.T, line int, raw []byte) {
	t.Helper()
	got, gerr := (&Decoder{line: line}).parseNDJSON(raw)
	want, werr := oracleNDJSON(line, raw)
	switch {
	case gerr == nil && werr == nil:
		if !sameJob(got, want) {
			t.Fatalf("line %q: decoded %+v, oracle %+v", raw, got, want)
		}
	case gerr == nil:
		t.Fatalf("line %q: accepted as %+v, oracle rejects: %v", raw, got, werr)
	case gerr.Line != line:
		t.Fatalf("line %q: error on line %d, want %d", raw, gerr.Line, line)
	case werr != nil && gerr.Field == werr.Field && reasonClass(gerr.Reason) == reasonClass(werr.Reason):
	case outsideGrammar(raw):
	default:
		t.Fatalf("line %q: rejected (%v), oracle %v, and the line is inside the grammar", raw, gerr, werr)
	}
}

func checkCSVLine(t *testing.T, line int, cols []string, raw []byte) {
	t.Helper()
	d := &Decoder{line: line}
	for _, c := range cols {
		d.cols = append(d.cols, field(slices.Index(fieldNames[:], c)))
	}
	got, gerr := d.parseCSV(raw)
	want, werr := oracleCSV(cols, line, string(raw))
	switch {
	case gerr == nil && werr == nil:
		if !sameJob(got, want) {
			t.Fatalf("csv %v line %q: decoded %+v, oracle %+v", cols, raw, got, want)
		}
	case gerr == nil || werr == nil || *gerr != *werr:
		t.Fatalf("csv %v line %q: error %v, oracle %v", cols, raw, gerr, werr)
	}
}

// TestEncodeMatchesOracle: Encode writes exactly the bytes of the
// encoding/json-based encoder it replaced, in both formats — on edge
// floats around encoding/json's 'f'/'e' switch and on random instances —
// and rejects the non-finite floats JSON cannot spell.
func TestEncodeMatchesOracle(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), 1, 0.1, 1.0 / 3, 1e-6, 9.99999e-7, 1e-7, 1.5e-7,
		1e20, 1e21, 9.999999999999999e20, 1.5e21, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, 123456789, 1e-10, 1e-100, 1e100, 7e22}
	var jobs []core.Job
	for i, x := range edges {
		jobs = append(jobs,
			core.Job{ID: i, Release: x, Size: x, Weight: x},
			core.Job{ID: -i, Release: -x, Size: x, Weight: -x})
	}
	jobs = append(jobs, core.Job{ID: math.MaxInt, Release: 1, Size: 2}, core.Job{ID: math.MinInt, Release: 3, Size: 4})
	cases := [][]core.Job{jobs, nil}
	for seed := uint64(0); seed < 200; seed++ {
		cases = append(cases, check.RandomInstance(seed).Jobs)
	}
	for _, js := range cases {
		for _, f := range []Format{FormatNDJSON, FormatCSV} {
			var got, want bytes.Buffer
			if err := Encode(&got, js, f); err != nil {
				t.Fatalf("%v: encode: %v", f, err)
			}
			if err := oracleEncode(&want, js, f); err != nil {
				t.Fatalf("%v: oracle encode: %v", f, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%v: encoded\n%s\nwant\n%s", f, got.Bytes(), want.Bytes())
			}
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, j := range []core.Job{{Release: x, Size: 1}, {Size: x}, {Size: 1, Weight: x}} {
			if err := Encode(io.Discard, []core.Job{j}, FormatNDJSON); err == nil {
				t.Fatalf("encoded %+v as NDJSON, want an error", j)
			}
		}
	}
}
