package main

import "testing"

func TestRunSmoke(t *testing.T) {
	if err := run([]string{"-n", "256", "-k", "4", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "64", "-k", "2", "-kind", "disjoint", "-protocol", "naive", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "64", "-k", "2", "-kind", "intersecting", "-protocol", "optimal", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "bogus"}); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if err := run([]string{"-n", "64", "-k", "2", "-trials", "1", "-protocol", "bogus"}); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}
