package scenario

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The spec structs in spec.go are the DSL's schema, and decode is the
// one walk from a parsed node tree into them. A field tagged
// `yaml:"key"` is read from that mapping key, `yaml:"key,required"`
// must be present, and an untagged field is never read. By Go type:
//
//   - a struct is a mapping whose allowed keys are its tags;
//   - a pointer is allocated only when its key is present, so nil
//     means absent;
//   - a map[string]T is a mapping with free keys;
//   - a slice is a sequence of at most MaxSteps items (steps is the
//     schema's only sequence);
//   - a string or bool is a scalar, and a number an unquoted scalar;
//   - a time.Duration is a scalar in time.ParseDuration syntax.
//
// Rules no tag states stay Go: a freshly allocated value's defaults
// method runs before any of its keys is read, and a struct's check
// method runs once all of them are.

// defaulter fills what a document may leave out.
type defaulter interface{ defaults() }

// checker enforces a rule that spans a struct's fields; the decoder
// pins its error to the mapping's line.
type checker interface{ check() error }

var durationType = reflect.TypeOf(time.Duration(0))

// decode reads n into v. what names the value in errors: the dotted
// key path below the enclosing document or sequence item, empty for
// those two, which are named by their type instead.
func decode(n *node, what string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
			if d, ok := v.Interface().(defaulter); ok {
				d.defaults()
			}
		}
		return decode(n, what, v.Elem())
	case reflect.Struct:
		return decodeStruct(n, what, v)
	case reflect.Map:
		if err := n.expect(kindMapping, what); err != nil {
			return err
		}
		m := reflect.MakeMapWithSize(v.Type(), len(n.keys))
		for _, k := range n.keys {
			e := reflect.New(v.Type().Elem()).Elem()
			if err := decode(n.fields[k], join(what, k), e); err != nil {
				return err
			}
			m.SetMapIndex(reflect.ValueOf(k), e)
		}
		v.Set(m)
		return nil
	case reflect.Slice:
		if err := n.expect(kindSequence, what); err != nil {
			return err
		}
		if len(n.items) > MaxSteps {
			return errAt(n.line, "%s has %d items (cap %d)", what, len(n.items), MaxSteps)
		}
		s := reflect.MakeSlice(v.Type(), len(n.items), len(n.items))
		for i, item := range n.items {
			if err := decode(item, "", s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
		return nil
	}
	return decodeScalar(n, what, v)
}

func decodeStruct(n *node, what string, v reflect.Value) error {
	t := v.Type()
	label := what
	if label == "" {
		label = strings.ToLower(t.Name())
	}
	if err := n.expect(kindMapping, label); err != nil {
		return err
	}
	allowed := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if key, _ := yamlTag(t.Field(i)); key != "" {
			allowed = append(allowed, key)
		}
	}
	for _, k := range n.keys {
		if !slices.Contains(allowed, k) {
			return errAt(n.fields[k].line, "unknown %s key %q (allowed: %s)",
				label, k, strings.Join(allowed, ", "))
		}
	}
	for i := 0; i < t.NumField(); i++ {
		key, required := yamlTag(t.Field(i))
		if key == "" {
			continue
		}
		c := n.fields[key]
		if c == nil {
			if required {
				return errAt(n.line, "%s needs %q", label, key)
			}
			continue
		}
		if err := decode(c, join(what, key), v.Field(i)); err != nil {
			return err
		}
	}
	if c, ok := v.Addr().Interface().(checker); ok {
		if err := c.check(); err != nil {
			return errAt(n.line, "%v", err)
		}
	}
	return nil
}

// yamlTag splits a field's `yaml:"key[,required]"` tag.
func yamlTag(f reflect.StructField) (key string, required bool) {
	key, opt, _ := strings.Cut(f.Tag.Get("yaml"), ",")
	return key, opt == "required"
}

func join(what, key string) string {
	if what == "" {
		return key
	}
	return what + "." + key
}

func decodeScalar(n *node, what string, v reflect.Value) error {
	if err := n.expect(kindScalar, what); err != nil {
		return err
	}
	s := n.scalar
	if v.Type() == durationType {
		d, err := time.ParseDuration(s)
		if err != nil {
			return errAt(n.line, "%s: bad duration %q: %v", what, s, err)
		}
		v.SetInt(int64(d))
		return nil
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(s)
		return nil
	case reflect.Bool:
		if s != "true" && s != "false" {
			return errAt(n.line, "%s: bad bool %q (want true or false)", what, s)
		}
		v.SetBool(s == "true")
		return nil
	}
	// A quoted scalar is always a string, never a number.
	noun := "integer"
	if v.Kind() == reflect.Float64 {
		noun = "number"
	}
	if n.quoted {
		return errAt(n.line, "%s must be an unquoted %s", what, noun)
	}
	var err error
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		var x int64
		if x, err = strconv.ParseInt(s, 0, v.Type().Bits()); err == nil {
			v.SetInt(x)
		}
	case reflect.Uint64:
		var x uint64
		if x, err = strconv.ParseUint(s, 0, 64); err == nil {
			v.SetUint(x)
		}
	case reflect.Float64:
		// ParseFloat reads "NaN" and "Inf", which would pass every range
		// check a spec makes (each comparison with NaN is false); refuse
		// them as it refuses an overflow, with ErrRange.
		var x float64
		if x, err = strconv.ParseFloat(s, 64); err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
			err = strconv.ErrRange
		}
		if err == nil {
			v.SetFloat(x)
		}
	default:
		panic("scenario: the schema has a " + v.Type().String() + " field decode cannot read")
	}
	if err != nil {
		return errAt(n.line, "%s: bad %s %q", what, noun, s)
	}
	return nil
}

func (n *node) expect(kind nodeKind, what string) error {
	if n.kind != kind {
		return errAt(n.line, "%s must be a %s, got %s", what, kind, n.kind)
	}
	return nil
}
