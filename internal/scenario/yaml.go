// Package scenario is the temporal supply-chain test harness: a
// declarative YAML scenario engine in which every step carries an `at:`
// offset on the virtual clock (internal/vclock) and a verb covering the
// whole stack — fabricate/imprint/stress/age/clone chips on any
// device.Fab backend, enroll and verify them against a live in-process
// fmverifyd (single-node durable registry or a sharded cluster plane),
// restart the registry mid-scenario, and assert verdicts, escalations,
// and /metrics counters. A scenario is deterministic by construction: a
// seeded rng, validated forward-only step times, and a canonical JSON
// transcript of every result, so whole suites golden-diff byte-for-byte.
//
// Because the module is standard-library-only, scenarios are written in
// a strict YAML subset parsed by this file: block mappings and
// sequences with two-space indentation, flow collections ({k: v},
// [a, b]), double-quoted and plain scalars, and '#' comments. Anchors,
// aliases, multi-document streams, multi-line scalars, and tabs are
// rejected — loudly, with line numbers — rather than half-supported.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser hard limits: every cap exists so a hostile scenario file (the
// fuzz target feeds arbitrary bytes) fails fast with an error instead
// of ballooning allocations or recursing unboundedly.
const (
	// MaxScenarioBytes caps one scenario file.
	MaxScenarioBytes = 256 << 10
	// maxLineBytes caps one source line.
	maxLineBytes = 4096
	// maxNodes caps the total node count of one document.
	maxNodes = 50_000
	// maxDepth caps block and flow nesting.
	maxDepth = 24
)

// nodeKind discriminates the three YAML node shapes the subset keeps.
type nodeKind int

const (
	kindScalar nodeKind = iota
	kindMapping
	kindSequence
)

func (k nodeKind) String() string {
	switch k {
	case kindScalar:
		return "scalar"
	case kindMapping:
		return "mapping"
	case kindSequence:
		return "sequence"
	}
	return "invalid"
}

// node is one parsed YAML value. Mappings remember key order so error
// messages and strict-decode walks are stable.
type node struct {
	kind   nodeKind
	line   int // 1-based source line, for error messages
	scalar string
	quoted bool // scalar came quoted: always a string, never null/number
	keys   []string
	fields map[string]*node
	items  []*node
}

// yamlError is a parse/decode failure with a source position.
type yamlError struct {
	line int
	msg  string
}

func (e *yamlError) Error() string {
	if e.line > 0 {
		return fmt.Sprintf("line %d: %s", e.line, e.msg)
	}
	return e.msg
}

func errAt(line int, format string, args ...any) error {
	return &yamlError{line: line, msg: fmt.Sprintf(format, args...)}
}

// srcLine is one logical source line after comment stripping.
type srcLine struct {
	indent int
	text   string // content with indentation removed
	num    int    // 1-based line number
}

// yamlParser owns the line cursor and the node budget.
type yamlParser struct {
	lines []srcLine
	pos   int
	nodes int
}

// parseYAML parses one document of the subset into a root mapping.
func parseYAML(data []byte) (*node, error) {
	if len(data) > MaxScenarioBytes {
		return nil, fmt.Errorf("scenario file is %d bytes (cap %d)", len(data), MaxScenarioBytes)
	}
	lines, err := splitLines(data)
	if err != nil {
		return nil, err
	}
	p := &yamlParser{lines: lines}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty scenario document")
	}
	if lines[0].indent != 0 {
		return nil, errAt(lines[0].num, "document must start at column 0")
	}
	root, err := p.parseBlock(0, 0)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, errAt(p.lines[p.pos].num, "unexpected de-indent or stray content")
	}
	if root.kind != kindMapping {
		return nil, errAt(root.line, "document root must be a mapping, got %s", root.kind)
	}
	return root, nil
}

// splitLines strips comments and blanks and measures indentation.
func splitLines(data []byte) ([]srcLine, error) {
	var out []srcLine
	for n, raw := range strings.Split(string(data), "\n") {
		num := n + 1
		if len(raw) > maxLineBytes {
			return nil, errAt(num, "line is %d bytes (cap %d)", len(raw), maxLineBytes)
		}
		raw = strings.TrimSuffix(raw, "\r")
		trimmed := strings.TrimLeft(raw, " ")
		indent := len(raw) - len(trimmed)
		if strings.ContainsRune(raw[:indent], '\t') || strings.HasPrefix(trimmed, "\t") {
			return nil, errAt(num, "tab in indentation (use spaces)")
		}
		text, err := stripComment(trimmed, num)
		if err != nil {
			return nil, err
		}
		text = strings.TrimRight(text, " ")
		if text == "" {
			continue
		}
		if text == "---" || text == "..." {
			return nil, errAt(num, "multi-document markers are not supported")
		}
		if strings.HasPrefix(text, "&") || strings.HasPrefix(text, "*") {
			return nil, errAt(num, "anchors and aliases are not supported")
		}
		out = append(out, srcLine{indent: indent, text: text, num: num})
	}
	return out, nil
}

// stripComment removes a trailing '# ...' comment, respecting quotes.
func stripComment(s string, num int) (string, error) {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case '\\':
			if inQuote {
				i++
			}
		case '#':
			if !inQuote && (i == 0 || s[i-1] == ' ') {
				return s[:i], nil
			}
		}
	}
	if inQuote {
		return "", errAt(num, "unterminated quoted string")
	}
	return s, nil
}

func (p *yamlParser) budget(line int) error {
	p.nodes++
	if p.nodes > maxNodes {
		return errAt(line, "document exceeds %d nodes", maxNodes)
	}
	return nil
}

// parseBlock parses the node whose first line is the current line, which
// must be indented exactly `indent` columns.
func (p *yamlParser) parseBlock(indent, depth int) (*node, error) {
	if depth > maxDepth {
		return nil, errAt(p.lines[p.pos].num, "nesting exceeds depth %d", maxDepth)
	}
	ln := p.lines[p.pos]
	if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
		return p.parseSequence(indent, depth)
	}
	// A whole-line flow collection (e.g. a "- {k: v}" sequence item after
	// the inline rewrite) parses as one flow value consuming the line.
	if strings.HasPrefix(ln.text, "{") || strings.HasPrefix(ln.text, "[") {
		n, err := p.parseFlow(ln.text, ln.num, depth)
		if err != nil {
			return nil, err
		}
		p.pos++
		return n, nil
	}
	return p.parseMapping(indent, depth)
}

// parseSequence parses consecutive "- item" lines at the given indent.
func (p *yamlParser) parseSequence(indent, depth int) (*node, error) {
	seq := &node{kind: kindSequence, line: p.lines[p.pos].num}
	if err := p.budget(seq.line); err != nil {
		return nil, err
	}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent != indent || !(strings.HasPrefix(ln.text, "- ") || ln.text == "-") {
			break
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		if rest == "" {
			// Item body on the following deeper-indented lines.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, errAt(ln.num, "empty sequence item")
			}
			item, err := p.parseBlock(p.lines[p.pos].indent, depth+1)
			if err != nil {
				return nil, err
			}
			seq.items = append(seq.items, item)
			continue
		}
		// Inline item content: rewrite the line as if the content started
		// its own block at the content column, then parse that block.
		p.lines[p.pos] = srcLine{indent: ln.indent + 2, text: rest, num: ln.num}
		item, err := p.parseBlock(ln.indent+2, depth+1)
		if err != nil {
			return nil, err
		}
		seq.items = append(seq.items, item)
	}
	return seq, nil
}

// keySplit finds the top-level ": " separator of a mapping line.
func keySplit(text string) (key, value string, ok bool) {
	inQuote := false
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '"':
			inQuote = !inQuote
		case '\\':
			if inQuote {
				i++
			}
		case ':':
			if inQuote {
				continue
			}
			if i+1 == len(text) {
				return text[:i], "", true
			}
			if text[i+1] == ' ' {
				return text[:i], strings.TrimLeft(text[i+1:], " "), true
			}
		}
	}
	return "", "", false
}

// parseMapping parses consecutive "key: value" lines at the given indent.
func (p *yamlParser) parseMapping(indent, depth int) (*node, error) {
	m := &node{kind: kindMapping, line: p.lines[p.pos].num, fields: map[string]*node{}}
	if err := p.budget(m.line); err != nil {
		return nil, err
	}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent != indent {
			if ln.indent > indent {
				return nil, errAt(ln.num, "unexpected indentation")
			}
			break
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, errAt(ln.num, "sequence item inside a mapping")
		}
		key, value, ok := keySplit(ln.text)
		if !ok {
			return nil, errAt(ln.num, "expected 'key: value'")
		}
		key = strings.TrimSpace(key)
		if key == "" {
			return nil, errAt(ln.num, "empty mapping key")
		}
		if strings.HasPrefix(key, "\"") {
			unq, err := unquoteScalar(key, ln.num)
			if err != nil {
				return nil, err
			}
			key = unq
		}
		if _, dup := m.fields[key]; dup {
			return nil, errAt(ln.num, "duplicate mapping key %q", key)
		}
		var child *node
		if value == "" {
			// Block value on deeper lines, or an empty (null-like) value.
			p.pos++
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				var err error
				child, err = p.parseBlock(p.lines[p.pos].indent, depth+1)
				if err != nil {
					return nil, err
				}
			} else {
				child = &node{kind: kindMapping, line: ln.num, fields: map[string]*node{}}
				if err := p.budget(ln.num); err != nil {
					return nil, err
				}
			}
		} else {
			var err error
			child, err = p.parseFlow(value, ln.num, depth+1)
			if err != nil {
				return nil, err
			}
			p.pos++
		}
		m.keys = append(m.keys, key)
		m.fields[key] = child
	}
	return m, nil
}

// parseFlow parses an inline value: a flow mapping, flow sequence, or
// scalar. The whole string must be consumed.
func (p *yamlParser) parseFlow(s string, line, depth int) (*node, error) {
	n, rest, err := p.parseFlowValue(s, line, depth)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(rest) != "" {
		return nil, errAt(line, "trailing content %q after value", strings.TrimSpace(rest))
	}
	return n, nil
}

func (p *yamlParser) parseFlowValue(s string, line, depth int) (*node, string, error) {
	if depth > maxDepth {
		return nil, "", errAt(line, "nesting exceeds depth %d", maxDepth)
	}
	s = strings.TrimLeft(s, " ")
	if s == "" {
		return nil, "", errAt(line, "empty flow value")
	}
	switch s[0] {
	case '{':
		return p.parseFlowMapping(s[1:], line, depth)
	case '[':
		return p.parseFlowSequence(s[1:], line, depth)
	case '"':
		end := quotedEnd(s)
		if end < 0 {
			return nil, "", errAt(line, "unterminated quoted string")
		}
		unq, err := unquoteScalar(s[:end+1], line)
		if err != nil {
			return nil, "", err
		}
		if err := p.budget(line); err != nil {
			return nil, "", err
		}
		return &node{kind: kindScalar, line: line, scalar: unq, quoted: true}, s[end+1:], nil
	}
	// Plain scalar: runs to the next flow terminator.
	end := len(s)
	for i := 0; i < len(s); i++ {
		if s[i] == ',' || s[i] == '}' || s[i] == ']' {
			end = i
			break
		}
	}
	val := strings.TrimSpace(s[:end])
	if val == "" {
		return nil, "", errAt(line, "empty flow scalar")
	}
	if val[0] == '&' || val[0] == '*' {
		return nil, "", errAt(line, "anchors and aliases are not supported")
	}
	if err := p.budget(line); err != nil {
		return nil, "", err
	}
	return &node{kind: kindScalar, line: line, scalar: val}, s[end:], nil
}

// quotedEnd returns the index of the closing quote of a string starting
// with '"', or -1.
func quotedEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}

func (p *yamlParser) parseFlowMapping(s string, line, depth int) (*node, string, error) {
	m := &node{kind: kindMapping, line: line, fields: map[string]*node{}}
	if err := p.budget(line); err != nil {
		return nil, "", err
	}
	s = strings.TrimLeft(s, " ")
	if strings.HasPrefix(s, "}") {
		return m, s[1:], nil
	}
	for {
		s = strings.TrimLeft(s, " ")
		key, rest, ok := flowKey(s)
		if !ok {
			return nil, "", errAt(line, "expected 'key: value' in flow mapping")
		}
		if strings.HasPrefix(key, "\"") {
			unq, err := unquoteScalar(key, line)
			if err != nil {
				return nil, "", err
			}
			key = unq
		}
		if key == "" {
			return nil, "", errAt(line, "empty flow mapping key")
		}
		if _, dup := m.fields[key]; dup {
			return nil, "", errAt(line, "duplicate mapping key %q", key)
		}
		val, after, err := p.parseFlowValue(rest, line, depth+1)
		if err != nil {
			return nil, "", err
		}
		m.keys = append(m.keys, key)
		m.fields[key] = val
		after = strings.TrimLeft(after, " ")
		if strings.HasPrefix(after, ",") {
			s = after[1:]
			continue
		}
		if strings.HasPrefix(after, "}") {
			return m, after[1:], nil
		}
		return nil, "", errAt(line, "expected ',' or '}' in flow mapping")
	}
}

// flowKey splits "key: rest" at the first unquoted colon.
func flowKey(s string) (key, rest string, ok bool) {
	i := 0
	if strings.HasPrefix(s, "\"") {
		end := quotedEnd(s)
		if end < 0 {
			return "", "", false
		}
		i = end + 1
	}
	for ; i < len(s); i++ {
		if s[i] == ':' {
			if i+1 < len(s) && s[i+1] != ' ' {
				return "", "", false
			}
			return strings.TrimSpace(s[:i]), strings.TrimLeft(s[i+1:], " "), true
		}
		if s[i] == ',' || s[i] == '}' || s[i] == ']' || s[i] == '{' || s[i] == '[' {
			return "", "", false
		}
	}
	return "", "", false
}

func (p *yamlParser) parseFlowSequence(s string, line, depth int) (*node, string, error) {
	seq := &node{kind: kindSequence, line: line}
	if err := p.budget(line); err != nil {
		return nil, "", err
	}
	s = strings.TrimLeft(s, " ")
	if strings.HasPrefix(s, "]") {
		return seq, s[1:], nil
	}
	for {
		val, after, err := p.parseFlowValue(s, line, depth+1)
		if err != nil {
			return nil, "", err
		}
		seq.items = append(seq.items, val)
		after = strings.TrimLeft(after, " ")
		if strings.HasPrefix(after, ",") {
			s = after[1:]
			continue
		}
		if strings.HasPrefix(after, "]") {
			return seq, after[1:], nil
		}
		return nil, "", errAt(line, "expected ',' or ']' in flow sequence")
	}
}

// unquoteScalar decodes a double-quoted scalar with Go-style escapes.
func unquoteScalar(s string, line int) (string, error) {
	unq, err := strconv.Unquote(s)
	if err != nil {
		return "", errAt(line, "bad quoted string %s", s)
	}
	return unq, nil
}
