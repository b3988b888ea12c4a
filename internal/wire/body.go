package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
)

// MaxBodyBytes caps every request body either tier reads.
const MaxBodyBytes = 1 << 20

// ReadJSON reads r's body under MaxBodyBytes and, unless v is nil, decodes
// it into v with json.Unmarshal; an empty body decodes as {}. Both tiers
// read every body through it, so one body gets one answer from either. It
// returns the bytes read (the router forwards them) and, on failure, the
// status to answer: 413 past the cap; 400 for a body that is not one JSON
// value, has bytes after it, or gives a field the wrong JSON type — worded
// in JSON keys and JSON types, never Go ones.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) (body []byte, status int, err error) {
	body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", MaxBodyBytes)
	case err != nil:
		return nil, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err)
	case v == nil || len(body) == 0:
		return body, 0, nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		var te *json.UnmarshalTypeError
		if !errors.As(err, &te) {
			return body, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)
		}
		got, _, _ := strings.Cut(te.Value, " ") // "number 1e99" → "number"
		want, ok := jsonTypes[te.Type.Kind()]
		if !ok {
			want = "a number"
		}
		field := ""
		if te.Field != "" {
			field = fmt.Sprintf("%q: ", te.Field)
		}
		return body, http.StatusBadRequest, fmt.Errorf("decoding request: %sgot a JSON %s, want %s",
			field, strings.Replace(got, "bool", "boolean", 1), want)
	}
	return body, 0, nil
}

// jsonTypes names the JSON type each non-numeric Go kind of a request field
// decodes from.
var jsonTypes = map[reflect.Kind]string{
	reflect.Bool: "a boolean", reflect.String: "a string", reflect.Slice: "an array",
	reflect.Struct: "an object", reflect.Map: "an object",
}
