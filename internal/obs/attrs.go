package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Attr is one key/value attribute of a span or a log event.
type Attr struct {
	Key, Value string
}

// Attrs is a record's attributes in the order its producer wrote them:
// one slice literal per record, so building one costs one allocation.
// Keys are unique. The JSON form is an object with sorted keys — the
// bytes encoding/json writes for the same pairs as a map[string]string —
// and decoding one yields the pairs in key order.
type Attrs []Attr

// Lookup returns the value under key k and whether the key is present.
func (a Attrs) Lookup(k string) (string, bool) {
	for _, at := range a {
		if at.Key == k {
			return at.Value, true
		}
	}
	return "", false
}

// Get returns the value under key k, or "" when it is absent.
func (a Attrs) Get(k string) string {
	v, _ := a.Lookup(k)
	return v
}

// MarshalJSON implements json.Marshaler: the object encoding/json
// writes for the pairs as a map[string]string (sorted keys), or null for
// a nil Attrs. A key set twice is an error: a map could not have held
// both values.
func (a Attrs) MarshalJSON() ([]byte, error) {
	if a == nil {
		return []byte("null"), nil
	}
	m := make(map[string]string, len(a))
	for _, at := range a {
		if _, dup := m[at.Key]; dup {
			return nil, fmt.Errorf("obs: attr %q set twice", at.Key)
		}
		m[at.Key] = at.Value
	}
	return json.Marshal(m)
}

// UnmarshalJSON implements json.Unmarshaler: an object becomes its pairs
// in key order (a repeated key keeps its last value, as for a map), and
// an empty object or null becomes nil, which omitempty drops.
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if len(m) == 0 {
		*a = nil
		return nil
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{k, v})
	}
	slices.SortFunc(out, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) })
	*a = out
	return nil
}
