// Package htmlx provides the small, tolerant HTML/JS extraction helpers
// the crawlers use. The standard library has no HTML parser; the paper's
// crawler similarly worked from raw page text (and from data hidden in
// commented-out JavaScript that no DOM parser would surface anyway), so
// string-scanning extraction is the honest shape of this problem.
package htmlx

import (
	"html"
	"strings"
)

// Between returns the text between the first occurrence of start and the
// next occurrence of end after it, and whether both markers were found.
func Between(s, start, end string) (string, bool) {
	i := strings.Index(s, start)
	if i < 0 {
		return "", false
	}
	rest := s[i+len(start):]
	j := strings.Index(rest, end)
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// Attr extracts the value of a double-quoted attribute from a tag
// fragment, e.g. Attr(`<div data-id="x">`, "data-id") == "x".
func Attr(fragment, name string) (string, bool) {
	return Between(fragment, name+`="`, `"`)
}

// Tags returns every complete opening tag of the given name (including
// attributes, excluding the angle brackets' inner content beyond the
// first '>'), plus the text up to the matching closing tag when one
// exists on the same nesting level textually. It is deliberately simple:
// good enough for the machine-generated pages the simulators emit.
type Tag struct {
	// Raw is the opening tag including attributes, without angle brackets.
	Raw string
	// Text is the unescaped inner text up to the next closing tag of the
	// same name (not nesting-aware).
	Text string
}

// FindTags scans for <name ...>...</name> fragments.
func FindTags(s, name string) []Tag {
	var out []Tag
	open := "<" + name
	closeTag := "</" + name + ">"
	for {
		i := strings.Index(s, open)
		if i < 0 {
			return out
		}
		rest := s[i+len(open):]
		// The match must be a whole tag name ("<div" not "<divider").
		if len(rest) > 0 && rest[0] != ' ' && rest[0] != '>' && rest[0] != '\t' && rest[0] != '\n' {
			s = rest
			continue
		}
		gt := strings.IndexByte(rest, '>')
		if gt < 0 {
			return out
		}
		raw := strings.TrimSpace(rest[:gt])
		body := rest[gt+1:]
		var text string
		if j := strings.Index(body, closeTag); j >= 0 {
			text = html.UnescapeString(strings.TrimSpace(body[:j]))
			s = body[j+len(closeTag):]
		} else {
			s = body
		}
		out = append(out, Tag{Raw: raw, Text: text})
	}
}

// CommentedOutJS extracts the right-hand side of a commented-out
// JavaScript assignment like
//
//	// var commentAuthor = {...};
//
// inside a <script> element — the paper's hidden-metadata channel (§3.2).
// It returns the JSON-ish payload without the trailing semicolon.
func CommentedOutJS(page, varName string) (string, bool) {
	marker := "// var " + varName + " = "
	payload, ok := Between(page, marker, ";\n")
	if !ok {
		payload, ok = Between(page, marker, ";")
	}
	return payload, ok
}
