package cpp

import "strings"

// tokenKind classifies preprocessor tokens.
type tokenKind uint8

const (
	tokIdent tokenKind = iota
	tokNumber
	tokString // "..." or '...'
	tokPunct
)

type token struct {
	kind        tokenKind
	text        string
	line        int
	spaceBefore bool
}

// stripComments removes /* */ and // comments (replacing them with a single
// space) and splices backslash-newline continuations, preserving newlines
// inside block comments so line numbers stay correct.
func stripComments(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\\' && i+1 < n && src[i+1] == '\n':
			b.WriteByte(' ')
			// keep the newline count consistent by emitting nothing; the
			// logical line continues. We drop the newline entirely and
			// compensate in splitLogicalLines via the contLines count
			// encoded as \x01 markers.
			b.WriteByte('\x01')
			i += 2
		case c == '\\' && i+2 < n && src[i+1] == '\r' && src[i+2] == '\n':
			b.WriteByte(' ')
			b.WriteByte('\x01')
			i += 3
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i < n {
				if src[i] == '*' && i+1 < n && src[i+1] == '/' {
					i += 2
					break
				}
				if src[i] == '\n' {
					b.WriteByte('\n')
				}
				i++
			}
			b.WriteByte(' ')
		case c == '"' || c == '\'':
			quote := c
			b.WriteByte(c)
			i++
			for i < n && src[i] != quote {
				if src[i] == '\\' && i+1 < n {
					b.WriteByte(src[i])
					i++
				}
				if i < n {
					b.WriteByte(src[i])
					i++
				}
			}
			if i < n {
				b.WriteByte(quote)
				i++
			}
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

type logicalLine struct {
	text string
	line int // starting physical line
}

// splitLogicalLines splits comment-stripped text into logical lines,
// accounting for \x01 continuation markers produced by stripComments.
func splitLogicalLines(src string) []logicalLine {
	var out []logicalLine
	line := 1
	var cur strings.Builder
	start := 1
	flush := func() {
		out = append(out, logicalLine{text: cur.String(), line: start})
		cur.Reset()
	}
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\n':
			flush()
			line++
			start = line
		case '\x01':
			line++ // swallowed newline from a continuation
		default:
			cur.WriteByte(src[i])
		}
	}
	if cur.Len() > 0 {
		flush()
	}
	return out
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// multi-character punctuators, longest first.
var puncts = []string{
	"...", "<<=", ">>=",
	"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "##",
}

// lexLine tokenizes one logical line for macro processing.
func lexLine(s, file string, line int) []token {
	_ = file
	var toks []token
	space := false
	for i := 0; i < len(s); {
		if isHSpace(s[i]) {
			space = true
			i++
			continue
		}
		kind, j := scanToken(s, i)
		toks = append(toks, token{kind: kind, text: s[i:j], line: line, spaceBefore: space})
		space = false
		i = j
	}
	return toks
}

// isHSpace reports whether c is whitespace within a logical line.
func isHSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// scanToken returns the kind and end of the token that starts at s[i],
// which is not whitespace.
func scanToken(s string, i int) (tokenKind, int) {
	n := len(s)
	c := s[i]
	switch {
	case isIdentStart(c):
		j := i + 1
		for j < n && isIdentChar(s[j]) {
			j++
		}
		return tokIdent, j
	case isDigit(c) || (c == '.' && i+1 < n && isDigit(s[i+1])):
		j := i + 1
		for j < n && (isIdentChar(s[j]) || s[j] == '.' ||
			((s[j] == '+' || s[j] == '-') && (s[j-1] == 'e' || s[j-1] == 'E' || s[j-1] == 'p' || s[j-1] == 'P'))) {
			j++
		}
		return tokNumber, j
	case c == '"' || c == '\'':
		quote := c
		j := i + 1
		for j < n && s[j] != quote {
			if s[j] == '\\' && j+1 < n {
				j++
			}
			j++
		}
		if j < n {
			j++
		}
		return tokString, j
	}
	for _, p := range puncts {
		if strings.HasPrefix(s[i:], p) {
			return tokPunct, i + len(p)
		}
	}
	return tokPunct, i + 1
}

// firstIdent returns the leading identifier of s, or "".
func firstIdent(s string) string {
	s = strings.TrimSpace(s)
	if s == "" || !isIdentStart(s[0]) {
		return ""
	}
	i := 1
	for i < len(s) && isIdentChar(s[i]) {
		i++
	}
	return s[:i]
}

// joinTokens renders tokens back to text with minimal separating spaces.
func joinTokens(toks []token) string {
	return string(appendJoined(nil, toks))
}

// appendJoined appends the joinTokens rendering of toks to dst.
func appendJoined(dst []byte, toks []token) []byte {
	for i, t := range toks {
		if i > 0 && (t.spaceBefore || needSpace(toks[i-1], t)) {
			dst = append(dst, ' ')
		}
		dst = append(dst, t.text...)
	}
	return dst
}

// needSpace reports whether a space must separate a and b to avoid
// accidentally gluing them into a different token.
func needSpace(a, b token) bool {
	if a.kind == tokIdent || a.kind == tokNumber {
		return b.kind == tokIdent || b.kind == tokNumber
	}
	if a.kind == tokPunct && b.kind == tokPunct {
		// Conservative: separate any punctuation pair that could merge.
		glued := a.text + b.text
		for _, p := range puncts {
			if strings.HasPrefix(glued, p) && len(p) > len(a.text) {
				return true
			}
		}
		switch glued[:min(2, len(glued))] {
		case "//", "/*", "--", "++", "<<", ">>":
			return true
		}
	}
	return false
}
