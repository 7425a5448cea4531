// Package registry maps logical service names to physical instances and
// their Gremlin agents. The Failure Orchestrator consults the registry to
// locate every agent that must receive a rule: "since an application might
// have multiple instances of any given service, the Failure Orchestrator
// locates and configures all physical instances of the Gremlin agents"
// (paper §4.2).
//
// Every registry is a lease-based Dynamic; NewStatic and LoadFile build
// one whose leases outlive any deployment (the paper's
// configuration-file model). Server and Client put it on HTTP for
// services that register at startup.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"
)

// ErrUnknownService is returned when a service has no registered instances.
var ErrUnknownService = errors.New("registry: unknown service")

// Instance is one physical instance of a logical service together with its
// co-located Gremlin agent.
type Instance struct {
	// Service is the logical service name.
	Service string `json:"service"`

	// Addr is the instance's own listen address (host:port), used when
	// wiring routes to this service.
	Addr string `json:"addr"`

	// AgentControlURL is the base URL of the sidecar agent's control API.
	// Empty for services that run without an agent (e.g. external APIs).
	AgentControlURL string `json:"agentControlUrl,omitempty"`

	// Replica is the instance's replica index within its service (0-based).
	// Single-replica services leave it zero.
	Replica int `json:"replica,omitempty"`

	// Health is the instance's last known health state as reported by its
	// registrar or a health checker ("up", "down"; empty = unknown/unchecked).
	Health string `json:"health,omitempty"`
}

// Registry resolves logical service names.
type Registry interface {
	// Instances returns the physical instances of a service, or
	// ErrUnknownService.
	Instances(service string) ([]Instance, error)

	// Services returns all known logical service names, sorted.
	Services() ([]string, error)
}

// staticLease is the default lease of a NewStatic registry: about a
// century, so a fixed table never expires in practice.
const staticLease = 100 * 365 * 24 * time.Hour

// NewStatic builds a fixed registry (the paper's configuration-file
// model): a Dynamic whose default lease is about a century. Instances
// without a service or address are dropped, as Add drops them; LoadFile
// reports them instead.
func NewStatic(instances ...Instance) *Dynamic {
	d := NewDynamic(DynamicOptions{DefaultTTL: staticLease})
	for _, in := range instances {
		d.Add(in)
	}
	return d
}

// LoadFile reads a registry file, a JSON array of instances
// ([{"service":..,"addr":..,"agentControlUrl":..}]), into a NewStatic
// registry. An entry without a service or address is an error naming its
// index.
func LoadFile(path string) (*Dynamic, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var instances []Instance
	if err := json.Unmarshal(raw, &instances); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	d := NewStatic()
	for i, in := range instances {
		if err := d.Register(in, 0); err != nil {
			return nil, fmt.Errorf("%s: entry %d: %w", path, i, err)
		}
	}
	return d, nil
}

// AgentURLs returns the distinct agent control URLs for a service's
// instances in first-seen order, which for a Dynamic is (replica, addr)
// order. Instances without agents are skipped.
func AgentURLs(r Registry, service string) ([]string, error) {
	instances, err := r.Instances(service)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(instances))
	var urls []string
	for _, in := range instances {
		if in.AgentControlURL == "" || seen[in.AgentControlURL] {
			continue
		}
		seen[in.AgentControlURL] = true
		urls = append(urls, in.AgentControlURL)
	}
	return urls, nil
}

// AllAgentURLs returns the distinct agent control URLs across every
// registered service, sorted.
func AllAgentURLs(r Registry) ([]string, error) {
	services, err := r.Services()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, svc := range services {
		urls, err := AgentURLs(r, svc)
		if err != nil {
			return nil, err
		}
		for _, u := range urls {
			seen[u] = true
		}
	}
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out, nil
}
