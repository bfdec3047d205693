package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"

	"evclimate/internal/runner"
	"evclimate/internal/telemetry"
)

// The record codec. A completion record crosses the fabric as one
// blob: a compact binary encoding of runner.JournalRecord, written once
// by the worker and from then on only moved, checksummed and spilled as
// raw bytes.
//
// The encoding is exact. Floats travel as their IEEE-754 bits, and
// slices and pointers carry a nil marker, so a record decodes to a
// reflect.DeepEqual copy of what was encoded — negative zeros and empty
// slices included — and so to the same journal JSON byte for byte.
// (encoding/gob is not exact: it omits zero-valued struct fields, so a
// -0 field decodes as +0 and an empty slice as nil.) It is also
// canonical: a blob decodes only if re-encoding the record reproduces
// it, so equal records have equal blobs and equal checksums.
//
// The walk is by reflection over exported fields in declaration order,
// so a field added to any record type travels with no codec change.
// Every blob starts with a hash of the record types' layout; a blob
// from a binary whose record types differ is rejected, never decoded
// field-shifted.
//
// Layout by kind: bool one byte, 0 or 1; signed integers zigzag
// varints; unsigned integers uvarints (both minimal-length); float64
// its little-endian IEEE bits; string a uvarint length and the bytes;
// slice a uvarint 0 for nil, else its length plus one, then the
// elements; pointer a byte 0 for nil, else 1 and the pointee; struct
// its exported fields in order. Other kinds (maps, interfaces, arrays,
// float32) are refused at encode time.

// recordLayout is the layout hash every blob starts with.
var recordLayout = layoutHash(reflect.TypeOf(runner.JournalRecord{}))

// float64s is the slice type the codec moves in bulk (trace columns).
var float64s = reflect.TypeOf([]float64(nil))

// errBlobTruncated reports a blob that ends inside a value.
var errBlobTruncated = errors.New("fabric: record blob truncated")

// encodeRecord encodes one journal-form record into its own
// self-contained blob — the unit the /complete checksums cover and the
// spill store writes to disk. A record is encoded exactly once, on the
// worker; everything downstream moves or hashes these bytes.
func encodeRecord(rec *runner.JournalRecord) ([]byte, error) {
	e := encoder{buf: binary.LittleEndian.AppendUint64(make([]byte, 0, 4<<10), recordLayout)}
	if err := e.value(reflect.ValueOf(rec).Elem()); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// decodeRecord decodes a blob written by encodeRecord. It rejects,
// without panicking, any blob encodeRecord could not have written:
// another record layout, a truncated value, an overlong varint, a
// marker byte other than 0 or 1, an out-of-range integer, or trailing
// bytes.
func decodeRecord(blob []byte) (*runner.JournalRecord, error) {
	if len(blob) < 8 || binary.LittleEndian.Uint64(blob) != recordLayout {
		return nil, errors.New("fabric: record blob has a different record layout (mismatched binary?)")
	}
	d := decoder{b: blob[8:]}
	rec := new(runner.JournalRecord)
	if err := d.value(reflect.ValueOf(rec).Elem()); err != nil {
		return nil, err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("fabric: record blob has %d trailing bytes", len(d.b))
	}
	return rec, nil
}

// blobSum is the FNV-1a payload checksum of one record blob, as
// fixed-width hex. It covers the exact bytes that crossed the wire, so
// the receiver verifies them without re-encoding anything.
func blobSum(blob []byte) string { return telemetry.FormatFingerprint(blobFNV(blob)) }

// blobFNV is blobSum as a number.
func blobFNV(blob []byte) uint64 {
	h := fnv.New64a()
	h.Write(blob)
	return h.Sum64()
}

// encodeComplete frames a completion as the /complete body. The frame
// is gob: the request holds no floats, so gob's zero-field omission
// cannot lose anything, and the record blobs inside are opaque bytes.
func encodeComplete(req *CompleteRequest) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// openComplete verifies a decoded completion's payload and decodes its
// records: every blob's checksum is checked before any record is
// decoded, so nothing built from unverified bytes reaches the caller.
// A checksum failure is in-transit corruption (ErrCorruptPayload); a
// blob that verifies but does not decode is a malformed request.
func openComplete(req *CompleteRequest) ([]*runner.JournalRecord, error) {
	if len(req.Sums) != len(req.Records) {
		return nil, fmt.Errorf("%w: %d checksums for %d records", ErrCorruptPayload, len(req.Sums), len(req.Records))
	}
	for k, blob := range req.Records {
		if sum := blobSum(blob); sum != req.Sums[k] {
			return nil, fmt.Errorf("%w: record %d sums %s on the wire, %s as sent",
				ErrCorruptPayload, k, sum, req.Sums[k])
		}
	}
	recs := make([]*runner.JournalRecord, len(req.Records))
	for k, blob := range req.Records {
		rec, err := decodeRecord(blob)
		if err != nil {
			return nil, fmt.Errorf("fabric: decode record %d: %w", k, err)
		}
		recs[k] = rec
	}
	return recs, nil
}

// layoutHash hashes the shape the codec walks for t: field names and
// kinds, recursively (record types are plain, non-recursive data).
func layoutHash(t reflect.Type) uint64 {
	var b strings.Builder
	writeLayout(&b, t)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return h.Sum64()
}

func writeLayout(b *strings.Builder, t reflect.Type) {
	switch t.Kind() {
	case reflect.Struct:
		b.WriteString("struct{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			b.WriteString(f.Name)
			b.WriteByte(' ')
			writeLayout(b, f.Type)
			b.WriteByte(';')
		}
		b.WriteByte('}')
	case reflect.Slice:
		b.WriteString("[]")
		writeLayout(b, t.Elem())
	case reflect.Pointer:
		b.WriteByte('*')
		writeLayout(b, t.Elem())
	default:
		b.WriteString(t.Kind().String())
	}
}

type encoder struct{ buf []byte }

func (e *encoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		var b byte
		if v.Bool() {
			b = 1
		}
		e.buf = append(e.buf, b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.buf = binary.AppendVarint(e.buf, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.buf = binary.AppendUvarint(e.buf, v.Uint())
	case reflect.Float64:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
		e.buf = append(e.buf, s...)
	case reflect.Slice:
		if v.IsNil() {
			e.buf = append(e.buf, 0)
			return nil
		}
		e.buf = binary.AppendUvarint(e.buf, uint64(v.Len())+1)
		if v.Type() == float64s {
			for _, f := range v.Interface().([]float64) {
				e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
			}
			return nil
		}
		return e.elems(v)
	case reflect.Pointer:
		if v.IsNil() {
			e.buf = append(e.buf, 0)
			return nil
		}
		e.buf = append(e.buf, 1)
		return e.value(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			// CanInterface is false exactly for unexported fields.
			if f := v.Field(i); f.CanInterface() {
				if err := e.value(f); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("fabric: record codec cannot encode %s", v.Type())
	}
	return nil
}

func (e *encoder) elems(v reflect.Value) error {
	for i := 0; i < v.Len(); i++ {
		if err := e.value(v.Index(i)); err != nil {
			return err
		}
	}
	return nil
}

// decoder reads a blob into freshly allocated (zero) values.
type decoder struct{ b []byte }

func (d *decoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.b)) {
		return nil, errBlobTruncated
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p, nil
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b)
	if n == 0 {
		return 0, errBlobTruncated
	}
	if n < 0 || n > 1 && d.b[n-1] == 0 {
		return 0, errors.New("fabric: record blob has an overlong varint")
	}
	d.b = d.b[n:]
	return x, nil
}

// flag reads a one-byte 0/1 marker (bool, or pointer presence).
func (d *decoder) flag() (bool, error) {
	p, err := d.take(1)
	if err != nil {
		return false, err
	}
	if p[0] > 1 {
		return false, fmt.Errorf("fabric: record blob has marker byte %d", p[0])
	}
	return p[0] == 1, nil
}

func (d *decoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b, err := d.flag()
		if err != nil {
			return err
		}
		v.SetBool(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		ux, err := d.uvarint()
		if err != nil {
			return err
		}
		x := int64(ux >> 1)
		if ux&1 != 0 {
			x = ^x
		}
		if v.OverflowInt(x) {
			return fmt.Errorf("fabric: record blob value %d overflows %s", x, v.Type())
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, err := d.uvarint()
		if err != nil {
			return err
		}
		if v.OverflowUint(x) {
			return fmt.Errorf("fabric: record blob value %d overflows %s", x, v.Type())
		}
		v.SetUint(x)
	case reflect.Float64:
		p, err := d.take(8)
		if err != nil {
			return err
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(p)))
	case reflect.String:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		p, err := d.take(n)
		if err != nil {
			return err
		}
		v.SetString(string(p))
	case reflect.Slice:
		m, err := d.uvarint()
		if err != nil || m == 0 {
			return err // m == 0: nil, and v already is
		}
		n := m - 1
		if v.Type() == float64s {
			if n > uint64(len(d.b))/8 {
				return errBlobTruncated
			}
			fs := make([]float64, n)
			for i := range fs {
				fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
			}
			d.b = d.b[8*n:]
			v.Set(reflect.ValueOf(fs))
			return nil
		}
		// No element encodes to fewer than one byte (bar empty
		// structs), so the remaining input bounds the allocation.
		if n > uint64(len(d.b)) {
			return errBlobTruncated
		}
		s := reflect.MakeSlice(v.Type(), int(n), int(n))
		if err := d.elems(s); err != nil {
			return err
		}
		v.Set(s)
	case reflect.Pointer:
		present, err := d.flag()
		if err != nil || !present {
			return err
		}
		p := reflect.New(v.Type().Elem())
		if err := d.value(p.Elem()); err != nil {
			return err
		}
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanInterface() {
				if err := d.value(f); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("fabric: record codec cannot decode %s", v.Type())
	}
	return nil
}

func (d *decoder) elems(v reflect.Value) error {
	for i := 0; i < v.Len(); i++ {
		if err := d.value(v.Index(i)); err != nil {
			return err
		}
	}
	return nil
}
