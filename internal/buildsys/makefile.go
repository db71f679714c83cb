// Package buildsys implements FEX's three-layer build system (Figure 2 of
// the paper): a common layer with parameters applicable to every benchmark
// and build type, an experiment layer with compiler- and type-specific
// makefiles, and an application layer defining each benchmark's build.
//
// The layers are plain makefiles connected by include chains, exactly as in
// the paper:
//
//	# gcc_native.mk (compiler-specific)
//	include common.mk
//	CC := gcc
//
//	# gcc_asan.mk (type-specific)
//	include gcc_native.mk
//	CFLAGS += -fsanitize=address
//	LDFLAGS += -fsanitize=address
//
//	# application makefile
//	NAME := histogram
//	include Makefile.$(BUILD_TYPE)
//
// Because the layers only meet through variables (CC, CFLAGS, LDFLAGS, …),
// "any application can be compiled with any of the existing build
// configurations without additional efforts".
package buildsys

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"regexp"
	"strings"
)

// Op is a makefile directive kind.
type Op int

// Directive kinds.
const (
	OpInclude Op = iota + 1
	OpSet        // VAR := value (overwrite)
	OpAppend     // VAR += value
)

// Directive is one makefile line.
type Directive struct {
	Op    Op
	Key   string // variable name (or include target for OpInclude)
	Value string
}

// Layer identifies which of the three layers a makefile belongs to.
type Layer int

// Build system layers (Figure 2).
const (
	LayerCommon Layer = iota + 1
	LayerExperiment
	LayerApplication
)

// String returns the layer name.
func (l Layer) String() string {
	switch l {
	case LayerCommon:
		return "common"
	case LayerExperiment:
		return "experiment"
	case LayerApplication:
		return "application"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// Makefile is a parsed makefile.
type Makefile struct {
	Name       string
	Layer      Layer
	Directives []Directive
}

// Digest returns a content hash of makefiles — names, layers and
// directives, in the given order — or "" when there are none.
func Digest(makefiles []*Makefile) string {
	if len(makefiles) == 0 {
		return ""
	}
	h := sha256.New()
	for _, mf := range makefiles {
		fmt.Fprintf(h, "%q %d %d\n", mf.Name, mf.Layer, len(mf.Directives))
		for _, d := range mf.Directives {
			fmt.Fprintf(h, "%d %q %q\n", d.Op, d.Key, d.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Common errors.
var (
	// ErrUnknownMakefile reports an include of an unregistered makefile.
	ErrUnknownMakefile = errors.New("buildsys: unknown makefile")
	// ErrIncludeCycle reports a cyclic include chain.
	ErrIncludeCycle = errors.New("buildsys: include cycle")
	// ErrParse reports malformed makefile text.
	ErrParse = errors.New("buildsys: parse error")
)

var varRef = regexp.MustCompile(`\$\(([A-Za-z_][A-Za-z0-9_]*)\)`)

// ParseMakefile parses the paper's makefile subset: `include X`,
// `VAR := value`, `VAR += value`, blank lines, and comments introduced by
// '#' or ';;'.
func ParseMakefile(name string, layer Layer, text string) (*Makefile, error) {
	mf := &Makefile{Name: name, Layer: layer}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, ";;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "include "):
			target := strings.TrimSpace(strings.TrimPrefix(line, "include "))
			if target == "" {
				return nil, fmt.Errorf("%w: %s:%d: empty include", ErrParse, name, lineNo+1)
			}
			mf.Directives = append(mf.Directives, Directive{Op: OpInclude, Key: target})
		case strings.Contains(line, ":="):
			parts := strings.SplitN(line, ":=", 2)
			key := strings.TrimSpace(parts[0])
			if key == "" {
				return nil, fmt.Errorf("%w: %s:%d: empty variable", ErrParse, name, lineNo+1)
			}
			mf.Directives = append(mf.Directives, Directive{
				Op: OpSet, Key: key, Value: strings.TrimSpace(parts[1]),
			})
		case strings.Contains(line, "+="):
			parts := strings.SplitN(line, "+=", 2)
			key := strings.TrimSpace(parts[0])
			if key == "" {
				return nil, fmt.Errorf("%w: %s:%d: empty variable", ErrParse, name, lineNo+1)
			}
			mf.Directives = append(mf.Directives, Directive{
				Op: OpAppend, Key: key, Value: strings.TrimSpace(parts[1]),
			})
		case strings.HasSuffix(line, ":") || strings.Contains(line, ": "):
			// Build targets ("all: $(BUILD)/$(NAME)") carry no variable
			// semantics in the model; they are accepted and ignored.
			continue
		default:
			return nil, fmt.Errorf("%w: %s:%d: cannot parse %q", ErrParse, name, lineNo+1, raw)
		}
	}
	return mf, nil
}

// Vars is a resolved variable environment.
type Vars map[string]string

// Get returns the value of key ("" when unset).
func (v Vars) Get(key string) string { return v[key] }

// List splits a flag-style variable on whitespace.
func (v Vars) List(key string) []string {
	return strings.Fields(v[key])
}

// expand substitutes $(VAR) references (recursively, bounded depth).
func (v Vars) expand(s string) (string, error) {
	for depth := 0; depth < 10; depth++ {
		if !strings.Contains(s, "$(") {
			return s, nil
		}
		s = varRef.ReplaceAllStringFunc(s, func(m string) string {
			key := varRef.FindStringSubmatch(m)[1]
			return v[key]
		})
	}
	if strings.Contains(s, "$(") {
		return "", fmt.Errorf("%w: unresolved variable reference in %q", ErrParse, s)
	}
	return s, nil
}
