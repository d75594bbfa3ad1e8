// Package ldif reads and writes directory instances in an LDIF-like
// text format: one block per entry, a "dn:" line followed by one
// "attribute: value" line per (attribute, value) pair, blocks separated
// by blank lines. Lines starting with '#' are comments; a line starting
// with a single space continues the previous line (RFC 2849-style
// folding). Values that are not RFC 2849 SAFE-STRINGs (leading space,
// ':' or '<', trailing space, non-ASCII or control bytes) travel
// base64-encoded on "attribute:: <base64>" lines. Values are typed by
// the schema on load.
package ldif

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/model"
)

// ErrFormat reports malformed LDIF input.
var ErrFormat = errors.New("ldif: format error")

// Write serializes the instance, entries in reverse-DN key order,
// preceded by a schema header (WriteSchema) so the file is
// self-describing: Read can load it without knowing the schema.
func Write(w io.Writer, in *model.Instance) error {
	bw := bufio.NewWriter(w)
	if err := WriteSchema(bw, in.Schema()); err != nil {
		return err
	}
	for i, e := range in.Entries() {
		if i > 0 {
			if _, err := bw.WriteString("\n"); err != nil {
				return err
			}
		}
		if err := writeAV(bw, "dn", e.DN().String()); err != nil {
			return err
		}
		for _, av := range e.Pairs() {
			if err := writeValue(bw, av.Attr, av.Value); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteSchema emits the schema as "#schema" comment directives:
//
//	#schema attribute <name> <type>
//	#schema class <name> <allowed-attr> ...
//
// Plain-comment readers skip them; Read reconstructs the schema.
func WriteSchema(w io.Writer, s *model.Schema) error {
	for _, a := range s.Attrs() {
		if a == model.ObjectClass {
			continue // implicit in every schema
		}
		t, _ := s.AttrType(a)
		if _, err := fmt.Fprintf(w, "#schema attribute %s %s\n", a, t); err != nil {
			return err
		}
	}
	for _, c := range s.Classes() {
		if _, err := fmt.Fprintf(w, "#schema class %s %s\n", c, strings.Join(s.AllowedAttrs(c), " ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Read parses an instance. If schema is nil, the file must carry
// #schema directives (as emitted by Write); otherwise directives refine
// the given schema. Entries may appear in any order; they are validated
// and key-sorted on insertion.
func Read(r io.Reader, schema *model.Schema) (*model.Instance, error) {
	if schema == nil {
		schema = model.NewSchema()
	}
	var in *model.Instance
	instance := func() *model.Instance {
		if in == nil {
			in = model.NewInstance(schema)
		}
		return in
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var lines []string
	lineNo, blockStart := 0, 0
	flush := func() error {
		if len(lines) == 0 {
			return nil
		}
		e, err := parseEntry(schema, lines)
		if err != nil {
			return fmt.Errorf("%w (block at line %d): %v", ErrFormat, blockStart, err)
		}
		lines = lines[:0]
		return instance().Add(e)
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#schema "):
			if in != nil {
				return nil, fmt.Errorf("%w: line %d: #schema after entries", ErrFormat, lineNo)
			}
			if err := parseSchemaDirective(schema, strings.TrimPrefix(line, "#schema ")); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, lineNo, err)
			}
		case strings.HasPrefix(line, "#"):
			continue
		case strings.TrimSpace(line) == "":
			if err := flush(); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, " "):
			if len(lines) == 0 {
				return nil, fmt.Errorf("%w: line %d: continuation without a line to continue", ErrFormat, lineNo)
			}
			lines[len(lines)-1] += line[1:]
		default:
			if len(lines) == 0 {
				blockStart = lineNo
			}
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return instance(), nil
}

func parseSchemaDirective(s *model.Schema, text string) error {
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return fmt.Errorf("bad #schema directive %q", text)
	}
	switch fields[0] {
	case "attribute":
		if len(fields) != 3 {
			return fmt.Errorf("#schema attribute needs name and type: %q", text)
		}
		return s.DefineAttr(fields[1], model.TypeName(fields[2]))
	case "class":
		return s.DefineClass(fields[1], fields[2:]...)
	default:
		return fmt.Errorf("unknown #schema directive %q", fields[0])
	}
}

// MarshalSchema renders a schema as its #schema directives.
func MarshalSchema(s *model.Schema) string {
	var b strings.Builder
	if err := WriteSchema(&b, s); err != nil {
		return ""
	}
	return b.String()
}

// UnmarshalSchema reconstructs a schema from #schema directives.
func UnmarshalSchema(text string) (*model.Schema, error) {
	s := model.NewSchema()
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || !strings.HasPrefix(line, "#schema ") {
			continue
		}
		if err := parseSchemaDirective(s, strings.TrimPrefix(line, "#schema ")); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, i+1, err)
		}
	}
	return s, nil
}

// MarshalEntry renders one entry as an LDIF block (no trailing blank
// line) — the form an "add" request carries on the directory protocol.
func MarshalEntry(e *model.Entry) string {
	var b strings.Builder
	writeAV(&b, "dn", e.DN().String())
	for _, av := range e.Pairs() {
		writeValue(&b, av.Attr, av.Value)
	}
	return b.String()
}

// UnmarshalEntry parses one LDIF block into an entry, typing values per
// the schema. The entry is not instance-validated; callers add it to an
// instance (which validates) or use it directly.
func UnmarshalEntry(schema *model.Schema, block string) (*model.Entry, error) {
	var lines []string
	for _, line := range strings.Split(block, "\n") {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, " ") && len(lines) > 0 {
			lines[len(lines)-1] += line[1:]
			continue
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("%w: empty entry block", ErrFormat)
	}
	return parseEntry(schema, lines)
}

func parseEntry(schema *model.Schema, lines []string) (*model.Entry, error) {
	attr, val, _, err := splitLine(lines[0])
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(attr, "dn") {
		return nil, fmt.Errorf("block must start with dn:, got %q", attr)
	}
	dn, err := model.ParseDN(val)
	if err != nil {
		return nil, err
	}
	e := model.NewEntry(dn)
	for _, line := range lines[1:] {
		attr, val, wasB64, err := splitLine(line)
		if err != nil {
			return nil, err
		}
		t, ok := schema.AttrType(attr)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q", attr)
		}
		var v model.Value
		if dim, isVec := model.VectorDim(t); isVec && wasB64 {
			// Base64-carried vectors are the binary form; the textual
			// "[...]" form (hand-written files) goes through ParseValue.
			if v, err = parseVectorBytes(val, dim); err != nil {
				return nil, err
			}
		} else if v, err = model.ParseValue(t, val); err != nil {
			return nil, err
		}
		if model.NormalizeAttr(attr) == model.ObjectClass {
			e.AddClass(v.Str())
			continue
		}
		e.Add(attr, v)
	}
	return e, nil
}

// writeValue emits one attribute-value line. Vector values travel as
// "attr:: <base64>" over their binary form — little-endian IEEE 754
// float32s, 4 bytes per component (RFC 2849 carries arbitrary octet
// strings this way). Everything else uses the textual writeAV form.
func writeValue(w io.Writer, attr string, v model.Value) error {
	if v.Kind() == model.KindVector {
		_, err := fmt.Fprintf(w, "%s:: %s\n", attr, base64.StdEncoding.EncodeToString(vectorBytes(v.Vec())))
		return err
	}
	return writeAV(w, attr, v.String())
}

// vectorBytes serializes a vector as little-endian float32s — the same
// byte order internal/plist uses on disk.
func vectorBytes(vec []float32) []byte {
	b := make([]byte, 0, 4*len(vec))
	for _, f := range vec {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
	}
	return b
}

// parseVectorBytes is the inverse of vectorBytes, validating the length
// against the schema dimension and rejecting non-finite components
// (mirroring model.ParseVector).
func parseVectorBytes(raw string, dim int) (model.Value, error) {
	if len(raw) != 4*dim {
		return model.Value{}, fmt.Errorf("vector value has %d bytes, want %d (dimension %d)", len(raw), 4*dim, dim)
	}
	vec := make([]float32, dim)
	for i := range vec {
		f := math.Float32frombits(binary.LittleEndian.Uint32([]byte(raw[4*i:])))
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			return model.Value{}, fmt.Errorf("vector component %d is not finite", i)
		}
		vec[i] = f
	}
	return model.VectorValue(vec), nil
}

// writeAV emits one "attr: value" line, switching to the RFC 2849
// base64 form ("attr:: <base64>") when the value is not a SAFE-STRING —
// our line-oriented reader would otherwise mangle it.
func writeAV(w io.Writer, attr, val string) error {
	if needsBase64(val) {
		_, err := fmt.Fprintf(w, "%s:: %s\n", attr, base64.StdEncoding.EncodeToString([]byte(val)))
		return err
	}
	_, err := fmt.Fprintf(w, "%s: %s\n", attr, val)
	return err
}

// needsBase64 reports whether val falls outside RFC 2849's SAFE-STRING
// grammar: it may not start with space, ':' or '<', may not end with
// space (our parser trims), and may not contain NUL, CR, LF or bytes
// outside ASCII.
func needsBase64(val string) bool {
	if val == "" {
		return false
	}
	switch val[0] {
	case ' ', ':', '<':
		return true
	}
	if val[len(val)-1] == ' ' {
		return true
	}
	for i := 0; i < len(val); i++ {
		switch c := val[i]; {
		case c == 0, c == '\r', c == '\n', c >= 0x80:
			return true
		}
	}
	return false
}

// splitLine splits "attr: value" or the base64 form "attr:: <base64>"
// (decoded here, per RFC 2849). A double colon is what distinguishes an
// encoded value from a plain value that merely starts with ':'. wasB64
// reports which form the line used — callers that expect binary values
// (vectors) only accept them from the encoded form.
func splitLine(line string) (attr, val string, wasB64 bool, err error) {
	i := strings.Index(line, ":")
	if i <= 0 {
		return "", "", false, fmt.Errorf("line %q lacks a colon", line)
	}
	attr = strings.TrimSpace(line[:i])
	rest := line[i+1:]
	if strings.HasPrefix(rest, ":") {
		raw, err := base64.StdEncoding.DecodeString(strings.TrimSpace(rest[1:]))
		if err != nil {
			return "", "", false, fmt.Errorf("line %q: bad base64 value: %v", line, err)
		}
		return attr, string(raw), true, nil
	}
	return attr, strings.TrimSpace(rest), false, nil
}
