package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
)

// digest hashes every bit of a value — each float by its IEEE-754 bits,
// so -0 and +0 or two NaN payloads differ — and counts its non-finite
// floats. Two results with equal digests are bit-identical up to a
// 64-bit FNV-1a collision; the benchmark compares digests instead of
// keeping every repetition's full trajectories in memory.
func digest(v any) (sum uint64, nonFinite int, err error) {
	h := fnv.New64a()
	d := digester{write: func(w uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}}
	if err := d.walk(reflect.ValueOf(v)); err != nil {
		return 0, 0, err
	}
	return h.Sum64(), d.nonFinite, nil
}

var float64s = reflect.TypeOf([]float64(nil))

type digester struct {
	write     func(uint64)
	nonFinite int
}

func (d *digester) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		d.nonFinite++
	}
	d.write(math.Float64bits(f))
}

func (d *digester) walk(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		d.float(v.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.write(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.write(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			d.write(1)
		} else {
			d.write(0)
		}
	case reflect.String:
		s := v.String()
		d.write(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			d.write(uint64(s[i]))
		}
	case reflect.Pointer:
		if v.IsNil() {
			d.write(0)
			return nil
		}
		d.write(1)
		return d.walk(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := d.walk(v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			d.write(math.MaxUint64)
			return nil
		}
		d.write(uint64(v.Len()))
		if v.Type() == float64s && v.CanInterface() {
			for _, f := range v.Interface().([]float64) {
				d.float(f)
			}
			return nil
		}
		for i := 0; i < v.Len(); i++ {
			if err := d.walk(v.Index(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("digest: unsupported kind %s", v.Kind())
	}
	return nil
}

// sameBits reports whether two values digest identically; a value
// that cannot be digested is never the same as anything.
func sameBits(a, b any) bool {
	da, _, err := digest(a)
	if err != nil {
		return false
	}
	db, _, err := digest(b)
	return err == nil && da == db
}
