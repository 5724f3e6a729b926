// Package pathcreate implements Automatic Path Creation — the Ninja
// concept the ACE report singles out as worth adopting (§8.1, §9:
// "Current developments in ACE call upon programmers to hard code
// what services to look for … it may be advantageous to further
// investigate and integrate … Ninja's Automatic Path Creation").
//
// Given a source and a destination data format, the planner discovers
// the converter services currently alive (ASD class lookup), collects
// their advertised capabilities, finds the shortest chain of
// conversions connecting the formats, and can execute a payload
// through that chain — composing simple services into a complex
// capability without any hard-coded wiring, exactly the "path"
// abstraction of Fig 15 built automatically.
package pathcreate

import (
	"fmt"
	"strings"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/media"
)

// Hop is one conversion step through a specific converter service.
type Hop struct {
	Service string
	Addr    string
	From    string
	To      string
}

// Path is an executable chain of hops.
type Path []Hop

// String renders the path ("mulaw -[conv_a]-> raw -[conv_b]-> mpegsim").
func (p Path) String() string {
	if len(p) == 0 {
		return "(identity)"
	}
	var b strings.Builder
	b.WriteString(p[0].From)
	for _, h := range p {
		fmt.Fprintf(&b, " -[%s]-> %s", h.Service, h.To)
	}
	return b.String()
}

// Planner discovers converters and plans conversion paths.
type Planner struct {
	pool    *daemon.Pool
	asdAddr string
}

// NewPlanner builds a planner over the environment's directory.
func NewPlanner(pool *daemon.Pool, asdAddr string) *Planner {
	return &Planner{pool: pool, asdAddr: asdAddr}
}

// edge is one advertised conversion at one service.
type edge struct {
	service, addr string
	from, to      string
}

// discover queries the ASD for live converter services and collects
// their capability advertisements.
func (p *Planner) discover() ([]edge, error) {
	reply, err := p.pool.Call(p.asdAddr, cmdlang.New(daemon.CmdLookup).
		SetString("class", media.ClassConverter))
	if err != nil {
		if cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
			return nil, fmt.Errorf("pathcreate: no converter services alive")
		}
		return nil, err
	}
	names := reply.Strings("names")
	addrs := reply.Strings("addrs")
	var edges []edge
	for i, name := range names {
		if i >= len(addrs) {
			break
		}
		caps, err := p.pool.Call(addrs[i], cmdlang.New("capabilities"))
		if err != nil {
			continue // converter died between lookup and query
		}
		froms := caps.Strings("from")
		tos := caps.Strings("to")
		for j := range froms {
			if j >= len(tos) {
				break
			}
			edges = append(edges, edge{service: name, addr: addrs[i], from: froms[j], to: tos[j]})
		}
	}
	return edges, nil
}

// Plan finds the shortest conversion chain from one format to
// another across the currently alive converters (BFS over formats).
func (p *Planner) Plan(from, to string) (Path, error) {
	if from == to {
		return Path{}, nil
	}
	edges, err := p.discover()
	if err != nil {
		return nil, err
	}
	type state struct {
		format string
		path   Path
	}
	visited := map[string]bool{from: true}
	frontier := []state{{format: from}}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, e := range edges {
			if e.from != cur.format || visited[e.to] {
				continue
			}
			next := append(append(Path{}, cur.path...), Hop{
				Service: e.service, Addr: e.addr, From: e.from, To: e.to,
			})
			if e.to == to {
				return next, nil
			}
			visited[e.to] = true
			frontier = append(frontier, state{format: e.to, path: next})
		}
	}
	return nil, fmt.Errorf("pathcreate: no conversion path %s→%s through live converters", from, to)
}

// Execute pushes a payload through the path, one converter at a time.
// The result shares memory with the last hop's reply (or is payload,
// for an empty path), so it must not be modified.
func (p *Planner) Execute(path Path, payload []byte) ([]byte, error) {
	cur := payload
	for _, hop := range path {
		reply, err := p.pool.Call(hop.Addr, cmdlang.New("convert").
			SetBytes("data", cur).
			SetWord("from", hop.From).
			SetWord("to", hop.To))
		if err != nil {
			return nil, fmt.Errorf("pathcreate: hop %s (%s→%s): %w", hop.Service, hop.From, hop.To, err)
		}
		var ok bool
		if cur, ok = reply.Bytes("data"); !ok {
			return nil, fmt.Errorf("pathcreate: hop %s returned no data", hop.Service)
		}
	}
	return cur, nil
}

// Convert plans and executes in one step.
func (p *Planner) Convert(payload []byte, from, to string) ([]byte, Path, error) {
	path, err := p.Plan(from, to)
	if err != nil {
		return nil, nil, err
	}
	out, err := p.Execute(path, payload)
	return out, path, err
}
