package core

import (
	"math"
	"strings"
	"testing"
)

func TestConfigValidateRejections(t *testing.T) {
	base := func() Config {
		c := DefaultConfig()
		c.TargetVertices = 500
		return c
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"order 3", func(c *Config) { c.Order = 3 }, "Order"},
		{"order negative", func(c *Config) { c.Order = -1 }, "Order"},
		{"unknown edge ordering", func(c *Config) { c.EdgeOrdering = "zigzag" }, "EdgeOrdering"},
		{"negative overlap", func(c *Config) { c.Overlap = -1 }, "Overlap"},
		{"negative fill", func(c *Config) { c.FillLevel = -2 }, "FillLevel"},
		{"zero ranks", func(c *Config) { c.Ranks = 0 }, "Ranks"},
		{"negative ranks", func(c *Config) { c.Ranks = -4 }, "Ranks"},
		{"no mesh source", func(c *Config) { c.TargetVertices = 0 }, "TargetVertices"},
		{"negative target vertices", func(c *Config) { c.TargetVertices = -10 }, "TargetVertices"},
		{"partial lattice", func(c *Config) { c.NX = 5; c.NY = 0; c.NZ = 4 }, "lattice"},
		{"orthogonalization typo", func(c *Config) { c.Newton.Krylov.Orthogonalization = "cgz" }, "Newton.Krylov: krylov: unknown Orthogonalization"},
		{"zero restart", func(c *Config) { c.Newton.Krylov.Restart = 0 }, "Newton.Krylov: krylov: need positive Restart"},
		{"zero CFL0", func(c *Config) { c.Newton.CFL0 = 0 }, "Newton: newton: CFL0"},
		{"negative CFL0", func(c *Config) { c.Newton.CFL0 = -10 }, "Newton: newton: CFL0"},
		{"zero max steps", func(c *Config) { c.Newton.MaxSteps = 0 }, "Newton: newton: MaxSteps"},
		{"negative step retries", func(c *Config) { c.Newton.StepRetries = -1 }, "Newton: newton: StepRetries"},
		{"zero CFLMax", func(c *Config) { c.Newton.CFLMax = 0 }, "Newton: newton: CFLMax"},
		{"NaN CFLMax", func(c *Config) { c.Newton.CFLMax = math.NaN() }, "Newton: newton: CFLMax"},
		{"NaN RelTol", func(c *Config) { c.Newton.RelTol = math.NaN() }, "Newton: newton: RelTol"},
		{"negative RelTol", func(c *Config) { c.Newton.RelTol = -1 }, "Newton: newton: RelTol"},
		{"NaN SER exponent", func(c *Config) { c.Newton.SERExponent = math.NaN() }, "Newton: newton: SERExponent"},
		{"negative Jacobian lag", func(c *Config) { c.Newton.JacobianLag = -3 }, "Newton: newton: JacobianLag"},
		{"NaN Newton switch", func(c *Config) { c.Newton.SwitchOrderAt = math.NaN() }, "Newton: newton: SwitchOrderAt"},
		{"NaN switch", func(c *Config) { c.SwitchOrderAt = math.NaN() }, "core: SwitchOrderAt"},
		{"negative switch", func(c *Config) { c.SwitchOrderAt = -1e-2 }, "core: SwitchOrderAt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %q", err, tc.wantErr)
			}
			// Build must reject it identically.
			if _, berr := Build(cfg); berr == nil {
				t.Fatalf("Build accepted %s", tc.name)
			}
		})
	}
}

func TestConfigValidateAccepts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"defaults", func(c *Config) {}},
		{"order zero means default", func(c *Config) { c.Order = 0 }},
		{"second order limited", func(c *Config) { c.Order = 2; c.Limit = true }},
		{"colored edges", func(c *Config) { c.EdgeOrdering = "colored" }},
		{"empty edge ordering", func(c *Config) { c.EdgeOrdering = "" }},
		{"lattice dims without target", func(c *Config) { c.NX, c.NY, c.NZ = 5, 4, 3; c.TargetVertices = 0 }},
		{"mesh file without target", func(c *Config) { c.MeshFile = "wing.mesh"; c.TargetVertices = 0 }},
		{"single-round orthogonalization", func(c *Config) { c.Newton.Krylov.Orthogonalization = "cgs1" }},
		{"zero Jacobian lag builds the preconditioner once", func(c *Config) { c.Newton.JacobianLag = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TargetVertices = 500
			tc.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Validate rejected %s: %v", tc.name, err)
			}
		})
	}
}
