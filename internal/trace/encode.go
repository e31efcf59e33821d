package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"rrnorm/internal/core"
)

// Encode writes jobs as a job trace in the given format — the inverse of
// Decoder, used to export instances as replayable fixtures. Floats are
// written in shortest round-trip form, so decode(encode(jobs)) yields jobs
// bit for bit (the round-trip identity FuzzTraceDecode pins). Jobs are
// written in the order given; encode a normalized instance to produce a
// release-ordered trace.
//
// NDJSON lines are the bytes encoding/json writes for the record
// {id, release, size, weight (omitted when 0)}; a NaN or infinite float is
// an error there, as JSON has no literal for it. Each record is appended
// to one reused buffer, so encoding makes no allocation per job.
func Encode(w io.Writer, jobs []core.Job, f Format) error {
	bw := bufio.NewWriter(w)
	if f == FormatCSV {
		if _, err := bw.WriteString("id,release,size,weight\n"); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 128)
	for _, j := range jobs {
		var err error
		if f == FormatCSV {
			buf = appendCSV(buf[:0], j)
		} else if buf, err = appendNDJSON(buf[:0], j); err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendCSV appends j as one CSV line in id,release,size,weight order.
func appendCSV(b []byte, j core.Job) []byte {
	b = strconv.AppendInt(b, int64(j.ID), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, j.Release, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, j.Size, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, j.Weight, 'g', -1, 64)
	return append(b, '\n')
}

// appendNDJSON appends j as one NDJSON line.
func appendNDJSON(b []byte, j core.Job) ([]byte, error) {
	var err error
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(j.ID), 10)
	b = append(b, `,"release":`...)
	if b, err = appendJSONFloat(b, fieldRelease, j.Release); err != nil {
		return b, err
	}
	b = append(b, `,"size":`...)
	if b, err = appendJSONFloat(b, fieldSize, j.Size); err != nil {
		return b, err
	}
	if j.Weight != 0 {
		b = append(b, `,"weight":`...)
		if b, err = appendJSONFloat(b, fieldWeight, j.Weight); err != nil {
			return b, err
		}
	}
	return append(b, "}\n"...), nil
}

// appendJSONFloat appends x as encoding/json formats a float64: the
// shortest round-trip digits, in 'f' form for 1e-6 ≤ |x| < 1e21 (and 0),
// otherwise in 'e' form with a two-digit negative exponent shortened
// (1e-07 → 1e-7).
func appendJSONFloat(b []byte, f field, x float64) ([]byte, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return b, fmt.Errorf("trace: unsupported %s value %v: JSON has no literal for it", fieldNames[f], x)
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
