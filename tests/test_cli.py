import hashlib
import json
import re
from unittest import mock

import pytest

from fragsched import (affine_plane, analytics, build_scheme, cyclic_shift, cli, model,
                       projective_plane, read_scheme, rng, scheme_hash, write_scheme)
from fragsched.cli import ACCEPTANCE_ROWS, main
from fragsched.errors import (
    DuplicateReplicaOnServer,
    ParseError,
    SchemaVersionUnsupported,
    ValidationFailed,
)
from fragsched.schemefile import doc_to_scheme, scheme_to_doc


class TestSchemeFile:
    def test_roundtrip_identity_and_hash(self, tmp_path, pp2):
        path = tmp_path / "pp2.json"
        write_scheme(pp2, path)
        back = read_scheme(path)
        assert back.occupancy == pp2.occupancy
        assert back.params == pp2.params
        assert scheme_hash(back) == scheme_hash(pp2)
        write_scheme(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_replication_mismatch_names_fragment(self):
        doc = scheme_to_doc(projective_plane(2))
        doc["occupancy"][2] = doc["occupancy"][2][:2]  # fragment 3 loses a replica
        with pytest.raises(ValidationFailed, match="fragment 3"):
            doc_to_scheme(doc)

    def test_unknown_format_version(self):
        doc = scheme_to_doc(projective_plane(2))
        doc["format"] = 99
        with pytest.raises(SchemaVersionUnsupported):
            doc_to_scheme(doc)

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "str"])
    def test_format_version_is_the_integer_one(self, version):
        # true and 1.0 compare equal to 1, and would load and hash like it
        doc = scheme_to_doc(projective_plane(2))
        assert doc_to_scheme(doc)
        doc["format"] = version
        with pytest.raises(SchemaVersionUnsupported, match=f"unsupported scheme format {version!r}"):
            doc_to_scheme(doc)

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            doc_to_scheme({"format": 1, "B": 3})

    def test_duplicate_replica_in_file(self):
        doc = scheme_to_doc(build_scheme([{1, 2}, {1, 2}], mu=1.0))
        doc["occupancy"][0] = [1, 1]
        with pytest.raises(DuplicateReplicaOnServer):
            doc_to_scheme(doc)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            read_scheme(path)

    @staticmethod
    def doc(**fields):
        """A valid one-replica document for two servers, with ``fields`` changed."""
        return {"format": 1, "B": 2, "V": 2, "R": 1, "K": 1, "mu": 1.0,
                "occupancy": [[1], [2]], **fields}

    @pytest.mark.parametrize("fields, match", [
        ({"occupancy": "a"}, "occupancy must be a list of lists"),
        ({"occupancy": [1, 2]}, "occupancy must be a list of lists"),
        ({"mu": "x"}, "mu must be a number, got 'x'"),
        ({"mu": True}, "mu must be a number, got True"),
        ({"occupancy": [[1.5], [1]]}, "occupancy of fragment 1: server id must be an integer"),
        ({"occupancy": [[True], [2]]}, "occupancy of fragment 1: server id must be an integer"),
        ({"B": True}, "B must be an integer, got True"),
        ({"V": 2.0}, "V must be an integer, got 2.0"),
        ({"R": None}, "R must be an integer, got None"),
        ({"K": "1"}, "K must be an integer, got '1'"),
    ], ids=["occupancy-str", "occupancy-flat", "mu-str", "mu-bool", "id-float", "id-bool",
            "B-bool", "V-float", "R-null", "K-str"])
    def test_wrong_field_type_names_the_field(self, fields, match):
        assert doc_to_scheme(self.doc())  # the unchanged document is valid
        with pytest.raises(ParseError, match=match):
            doc_to_scheme(self.doc(**fields))

    def test_boolean_id_is_not_server_one(self):
        # a JSON true would otherwise build the scheme of [[1]] under another hash
        one = {"format": 1, "B": 1, "V": 1, "R": 1, "K": 1, "mu": 1.0, "occupancy": [[1]]}
        assert scheme_hash(doc_to_scheme(one)) == scheme_hash(build_scheme([{1}], mu=1.0))
        with pytest.raises(ParseError, match="server id must be an integer, got True"):
            doc_to_scheme({**one, "occupancy": [[True]]})

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b'{"format": 1\xff}')
        with pytest.raises(ParseError, match="bytes.json"):
            read_scheme(path)


class TestConstruct:
    def test_pp(self, tmp_path, capsys):
        out = tmp_path / "pp.json"
        assert main(["construct", "--kind", "pp", "--q", "3", "--out", str(out)]) == 0
        scheme = read_scheme(out)
        assert (scheme.params.B, scheme.params.V) == (13, 13)

    def test_cyclic(self, tmp_path):
        out = tmp_path / "cy.json"
        assert main(["construct", "--kind", "cyclic", "--V", "7", "--R", "3",
                     "--mu", "0.5", "--out", str(out)]) == 0
        scheme = read_scheme(out)
        assert scheme.params.mu == 0.5
        assert sorted(scheme.fragments_on(1)) == [1, 2, 3]

    def test_affine(self, tmp_path):
        out = tmp_path / "af.json"
        assert main(["construct", "--kind", "affine", "--q", "2", "--out", str(out)]) == 0
        assert read_scheme(out).params.V == 4

    def test_large_emits_reduction(self, tmp_path, capsys):
        out = tmp_path / "lg.json"
        assert main(["construct", "--kind", "large", "--V", "2", "--B", "2", "--K", "4",
                     "--out", str(out)]) == 0
        scheme = read_scheme(out)
        assert scheme.params.K == 2  # distinct fragments per server
        assert all(s == frozenset({1, 2}) for s in scheme.occupancy)
        # the file's bytes and the note, pinned: R = B*K/V = 6 replicas per
        # fragment on 3 servers become the 3 x 4 scheme
        capsys.readouterr()
        assert main(["construct", "--kind", "large", "--V", "4", "--B", "3", "--K", "8",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3a5e844f5efd86ba7b9f04b2d6f98b7aee4a8d54f451678087a5d6eaa971163c")
        captured = capsys.readouterr()
        assert captured.err == ("note: emitted the distinct-replica reduction (R=3, K=4) "
                                "of the R=6 placement\n")
        assert captured.out.endswith("B=3 V=4 R=3 K=4 hash=93850f1ea59ee925\n")

    @pytest.mark.parametrize("V, B, K", [("0", "2", "3"), ("3", "0", "3"), ("3", "2", "0")])
    def test_large_rejects_non_positive_sizes(self, V, B, K, tmp_path, capsys):
        out = tmp_path / "lg.json"
        assert main(["construct", "--kind", "large", "--V", V, "--B", B, "--K", K,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: V, B and K must be positive, got V={V}, B={B}, K={K}\n"
        assert not out.exists()

    def test_nonprime_exits_one(self, tmp_path, capsys):
        rc = main(["construct", "--kind", "pp", "--q", "4", "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_flag_exits_one(self, tmp_path, capsys):
        rc = main(["construct", "--kind", "cyclic", "--V", "7", "--out", str(tmp_path / "x.json")])
        assert rc == 1

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--kind", "pp", "--q", "2", "--frobnicate", "1",
                  "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2


class TestInspectAndBounds:
    @pytest.fixture()
    def pp2_file(self, tmp_path, pp2):
        path = tmp_path / "pp2.json"
        write_scheme(pp2, path)
        return path

    def test_inspect_fields(self, pp2_file, tmp_path):
        out = tmp_path / "inspect.json"
        assert main(["inspect", "--scheme", str(pp2_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["tau_max"] == 1 and doc["lambda_max"] == 1
        assert doc["two_design_lambda"] == 1
        assert doc["conservation_laws"] == [True, True]
        assert doc["config"]["scheme_hash"] == scheme_hash(read_scheme(pp2_file))

    def test_bounds_csv_columns(self, pp2_file, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--scheme", str(pp2_file), "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "ell,lb_general,lb_design,ub,rep_expected,mds_expected"
        assert len(lines) == 1 + 7
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "7"


class TestBoundsAndInspectGolden:
    """SHA-256 of the ``bounds`` CSV and the ``inspect`` JSON, pinned from
    the code before ``bound_envelope`` became the one producer of bound
    profiles, so a change to how the profiles are derived cannot move a
    byte unnoticed."""

    SCHEMES = {
        "pp2": lambda: projective_plane(2),
        "pp3": lambda: projective_plane(3),
        "affine3": lambda: affine_plane(3),
        "cyclic73": lambda: cyclic_shift(7, 3),
    }
    GOLDEN = {
        ("pp2", "bounds"): "b34beed6fd87ea34d64e726dab2e97fa01c10a50ea5ece4a7c0ee1ed2a7ed9bf",
        ("pp2", "inspect"): "8364b7c1deac8339257e92516be9682d6fa04ba4d074ed07c71f32983cbcf038",
        ("pp3", "bounds"): "dbc4d744c32fcccfd754247743b220f32aa84097f830401b400f70be1e034594",
        ("pp3", "inspect"): "6a5b04eb8a60f97a423db1e2c27f19512e1de3802b13b5cb7830ec5499397756",
        ("affine3", "bounds"): "e9c2b76d567593d131e1bf96a229c7d3f394ef70009933f96f013bc7527f1ecc",
        ("affine3", "inspect"): "c8662184ed5edc46c4d8b1e142b0a2d7b4b1f769b5149cff3cec82edc7eab93b",
        ("cyclic73", "bounds"): "13242c56fe11bc55d2b2046e0af26cfe711e1ffd06f5ce19507bd989d4202163",
        ("cyclic73", "inspect"): "1768ae41893886d8c34c9c0c08f04e1aa5b60ea2e1303f8d8206f394e64b31a0",
    }

    @pytest.mark.parametrize("name, command", sorted(GOLDEN),
                             ids=[f"{name}-{command}" for name, command in sorted(GOLDEN)])
    def test_artifact_bytes(self, tmp_path, name, command):
        scheme = tmp_path / f"{name}.json"
        write_scheme(self.SCHEMES[name](), scheme)
        out = tmp_path / f"{name}.{command}"
        assert main([command, "--scheme", str(scheme), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[name, command]

    def test_bounds_counts_overlaps_once(self, tmp_path):
        scheme = tmp_path / "pp3.json"
        write_scheme(projective_plane(3), scheme)
        counted = mock.Mock(wraps=model.overlap_profile)
        with mock.patch.object(analytics, "overlap_profile", counted), \
                mock.patch.object(cli, "overlap_profile", counted):
            assert main(["bounds", "--scheme", str(scheme), "--out", str(tmp_path / "b.csv")]) == 0
        assert counted.call_count == 1


class TestSimulateExactMdp:
    @pytest.fixture()
    def pp2_file(self, tmp_path, pp2):
        path = tmp_path / "pp2.json"
        write_scheme(pp2, path)
        return path

    def test_simulate_byte_identical(self, pp2_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["simulate", "--scheme", str(pp2_file), "--scheduler", "ranked",
                 "--rank", "harmonic", "--init", "ud", "--mu", "1", "--runs", "500",
                 "--seed", "9"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b), "--threads", "2"]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["mean_download_time"] == db["mean_download_time"]
        assert a.with_suffix(".profile.csv").exists()
        # identical flags twice: byte-identical artifact
        first = a.read_bytes()
        assert main(flags + ["--out", str(a)]) == 0
        assert a.read_bytes() == first

    def test_simulate_csv_format(self, pp2_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--scheme", str(pp2_file), "--runs", "50",
                     "--seed", "1", "--format", "csv", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# scheme_hash=" in text
        assert "mean_download_time" in text

    def test_exact_matches_reference(self, tmp_path, ring4):
        path = tmp_path / "ring.json"
        write_scheme(ring4, path)
        out = tmp_path / "exact.json"
        assert main(["exact", "--scheme", str(path), "--scheduler", "random",
                     "--mu", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mean_download_time"] == pytest.approx(21 / 16)
        assert doc["mean_download_time_exact"] == "21/16"
        assert doc["jensen_lower_bound"] <= 21 / 16

    def test_mdp_reports_gap(self, pp2_file, tmp_path):
        out = tmp_path / "mdp.json"
        assert main(["mdp", "--scheme", str(pp2_file), "--compare-rank", "harmonic",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["compare"]["relative_gap"] >= 0.0
        assert doc["optimal_value"] > 0

    # SHA-256 of the exact commands' artifacts, pinned from the code in which
    # `exact_mean_download` and `policy_evaluate_exact` had separate result
    # types, so merging them cannot move a byte unnoticed
    SCHEMES = {
        "pp2": lambda: projective_plane(2),
        "affine3": lambda: affine_plane(3),
        "cyclic173": lambda: cyclic_shift(17, 3),  # V > 16: the float forward DP
    }
    GOLDEN = {
        ("pp2", "exact", "random"):
            "66edc99597194674fb0708cdfe9c164205ab76cb470d7aea562f358002c5f074",
        ("pp2", "exact", "harmonic"):
            "e41b008703231c99ff1bbb05e82cbd8308bb5a15cfb9eea73a2569498652cba7",
        ("pp2", "exact", "mdp"):
            "4e9953f3ce0255bb939143e27610fa6a4ecba61838ab19f98fa6262e32320bf2",
        ("cyclic173", "exact", "random"):
            "59bf7b9ecce388193fc44f5d3eb4bf7e879d8215ff5192ec0b62c64b0df35146",
        ("pp2", "mdp", "harmonic"):
            "d07a9a835cdd9b26d017c479bc9b664677fc79beddb19055d290e54386e54099",
        ("affine3", "mdp", "harmonic"):
            "a3fc108994becb795e157bde0d07c1ad13674ab6d459af1444503fa8ad8bb931",
    }
    FLAGS = {
        ("exact", "random"): ["--scheduler", "random"],
        ("exact", "harmonic"): ["--scheduler", "ranked", "--rank", "harmonic"],
        ("exact", "mdp"): ["--scheduler", "mdp"],
        ("mdp", "harmonic"): ["--compare-rank", "harmonic"],
    }

    @pytest.mark.parametrize("name, command, policy", sorted(GOLDEN),
                             ids=["-".join(key) for key in sorted(GOLDEN)])
    def test_artifact_bytes(self, tmp_path, name, command, policy):
        scheme = tmp_path / f"{name}.json"
        write_scheme(self.SCHEMES[name](), scheme)
        out = tmp_path / f"{name}.{command}.json"
        argv = [command, "--scheme", str(scheme), *self.FLAGS[command, policy], "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[name, command, policy]

    def test_mdp_cap_is_fixed(self, capsys):
        with pytest.raises(SystemExit):
            main(["mdp", "--help"])
        assert "--cap" not in capsys.readouterr().out

    def test_mdp_cap_exits_one(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        write_scheme(cyclic_shift(25, 3), path)
        assert main(["mdp", "--scheme", str(path)]) == 1


class TestFileErrors:
    """A file that cannot be read or written ends the command in one line on
    stderr and exit status 1, not a traceback."""

    @staticmethod
    def last_error(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.splitlines()[-1]

    def test_missing_scheme(self, tmp_path, capsys):
        assert main(["inspect", "--scheme", str(tmp_path / "missing.json")]) == 1
        assert self.last_error(capsys).startswith("error: [Errno 2] No such file or directory")

    def test_scheme_is_a_directory(self, tmp_path, capsys):
        assert main(["bounds", "--scheme", str(tmp_path)]) == 1
        assert self.last_error(capsys).startswith("error: [Errno 21] Is a directory")

    @staticmethod
    def assert_refused_before_work(argv, tmp_path, capsys, parent="missing",
                                   error="[Errno 2] No such file or directory"):
        """``--out`` in a missing directory ends the command before it runs
        anything: no rows on stdout, no timing line, only the error."""
        out = tmp_path / parent / "run.json"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}: {str(out)!r}\n"
        assert not out.exists()

    def test_out_in_missing_directory(self, tmp_path, capsys, pp2):
        path = tmp_path / "pp2.json"
        write_scheme(pp2, path)
        self.assert_refused_before_work(["simulate", "--scheme", str(path), "--runs", "10"],
                                        tmp_path, capsys)

    def test_out_under_a_file(self, tmp_path, capsys, pp2):
        path = tmp_path / "pp2.json"
        write_scheme(pp2, path)
        self.assert_refused_before_work(["simulate", "--scheme", str(path), "--runs", "10"],
                                        tmp_path, capsys, parent="pp2.json",
                                        error="[Errno 20] Not a directory")

    def test_ensemble_out_in_missing_directory(self, tmp_path, capsys):
        self.assert_refused_before_work(
            ["ensemble", "--kind", "rep", "--mode", "fragment", "--B", "5", "--V", "8",
             "--R", "2", "--samples", "30", "--seed", "4"], tmp_path, capsys)

    def test_reproduce_out_in_missing_directory(self, tmp_path, capsys):
        self.assert_refused_before_work(["reproduce", "table-download-times", "--runs", "10"],
                                        tmp_path, capsys)


class TestEnsembleCli:
    def test_ensemble_csv(self, tmp_path):
        out = tmp_path / "ens.csv"
        assert main(["ensemble", "--kind", "rep", "--mode", "fragment", "--B", "5",
                     "--V", "8", "--R", "2", "--samples", "300", "--seed", "4",
                     "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        header = [l for l in text if l.startswith("#")]
        assert any("duplicate_frequency" in l for l in header)
        body = [l for l in text if not l.startswith("#")]
        assert body[0] == "ell,mean_N,se_N,expected_N"
        assert len(body) == 1 + 8

    @pytest.mark.parametrize("flag", ["--B", "--V", "--R"])
    def test_nonpositive_size_exits_one(self, flag, tmp_path, capsys):
        sizes = {"--B": "5", "--V": "8", "--R": "2"}
        sizes[flag] = "0"
        argv = ["ensemble", "--kind", "mds", "--mode", "server", "--samples", "10",
                "--out", str(tmp_path / "ens.csv")]
        for name, value in sizes.items():
            argv += [name, value]
        assert main(argv) == 1
        assert "error: B, V, R must be positive" in capsys.readouterr().err
        assert not (tmp_path / "ens.csv").exists()


class TestSimulateFlags:
    def test_seeded_ties_with_init_order_exit_one(self, tmp_path, capsys, pp2):
        path = tmp_path / "pp2.json"
        write_scheme(pp2, path)
        assert main(["simulate", "--scheme", str(path), "--scheduler", "ranked",
                     "--tie", "seeded", "--init", "ud", "--runs", "10"]) == 1
        assert "error: tie='seeded' cannot be combined with an init order" in capsys.readouterr().err


class TestBadRateAndThreads:
    # "--mu=-inf": argparse reads a separate "-inf" as a flag
    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["simulate", "exact"])
    def test_non_finite_mu_exits_one(self, command, mu, tmp_path, capsys, pp2):
        path = tmp_path / "pp2.json"
        write_scheme(pp2, path)
        out = tmp_path / "out.json"
        argv = [command, "--scheme", str(path), f"--mu={mu}", "--out", str(out)]
        if command == "simulate":
            argv += ["--runs", "10"]
        assert main(argv) == 1
        assert "error: download rate mu must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
    def test_construct_rejects_non_finite_mu(self, mu, tmp_path, capsys):
        out = tmp_path / "pp.json"
        assert main(["construct", "--kind", "pp", "--q", "2", f"--mu={mu}", "--out", str(out)]) == 1
        assert "error: download rate mu must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["construct", "simulate", "exact"])
    def test_mu_help_names_the_equals_form(self, command, capsys):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        text = "".join(capsys.readouterr().out.split())  # help text wraps at any width
        assert "--mu=VALUE" in text and "-inf" in text

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_one(self, threads, tmp_path, capsys, pp2):
        path = tmp_path / "pp2.json"
        write_scheme(pp2, path)
        runs = [["simulate", "--scheme", str(path), "--runs", "10"],
                ["ensemble", "--kind", "rep", "--mode", "server", "--B", "3", "--V", "4",
                 "--R", "2", "--samples", "10"]]
        for argv in runs:
            out = tmp_path / "out.txt"
            assert main(argv + [f"--threads={threads}", "--out", str(out)]) == 1
            assert f"error: threads must be >= 1, got {threads}" in capsys.readouterr().err
            assert not out.exists()


class TestReproduce:
    def test_appendix_means_passes(self, capsys):
        assert main(["reproduce", "appendix-means"]) == 0
        out = capsys.readouterr().out
        assert "21/16" in out and "11/8" in out
        # pinned from the code in which `exact_mean_download` lived in `engine`
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "631b014d8d90ff65150a67bfa059a00aeb0bb931caaa1a9c5daccb8a541030c9")

    def test_table_smoke(self, tmp_path, capsys):
        # structural smoke run at a tiny run count; tolerance enforcement is
        # exercised at full scale by the acceptance battery
        out = tmp_path / "table.csv"
        rc = main(["reproduce", "table-download-times", "--runs", "400",
                   "--seed", "20260809", "--threads", "2", "--out", str(out)])
        assert rc in (0, 1)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "row,mean,reference,rel_error,status"
        assert len(lines) == 1 + 4
        stdout = capsys.readouterr().out
        assert "pp/harmonic-ud" in stdout


class TestArtifactsIndependentOfExecution:
    """The same experiment writes the same bytes at any worker count and to
    any output path: neither ``--threads`` nor ``--out`` enters a header.
    Every command that takes ``--seed`` records the seeding contract."""

    @staticmethod
    def run_twice(tmp_path, flags, name):
        paths = []
        for threads, sub in (("1", "one"), ("2", "two")):
            (tmp_path / sub).mkdir()
            out = tmp_path / sub / f"{name}-{threads}"
            assert main(flags + ["--threads", threads, "--out", str(out)]) in (0, 1)
            paths.append(out)
        return paths

    def test_simulate_json_and_profile(self, tmp_path, pp2):
        scheme = tmp_path / "pp2.json"
        write_scheme(pp2, scheme)
        a, b = self.run_twice(tmp_path, ["simulate", "--scheme", str(scheme), "--scheduler", "ud",
                                         "--runs", "300", "--seed", "4"], "sim.json")
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".profile.csv").read_bytes() == b.with_suffix(".profile.csv").read_bytes()
        config = json.loads(a.read_text())["config"]
        assert "threads" not in config and "out" not in config
        assert config["seeding_contract"] == rng.SEEDING_CONTRACT == 2

    def test_ensemble(self, tmp_path):
        a, b = self.run_twice(tmp_path, ["ensemble", "--kind", "rep", "--mode", "server", "--B", "9",
                                         "--V", "12", "--R", "2", "--samples", "40", "--seed", "3"],
                              "ens.csv")
        assert a.read_bytes() == b.read_bytes()
        assert "# threads=" not in a.read_text() and "# out=" not in a.read_text()
        assert "# seeding_contract=2\n" in a.read_text()

    def test_reproduce_acceptance(self, tmp_path):
        a, b = self.run_twice(tmp_path, ["reproduce", "table-download-times", "--rows", "acceptance",
                                         "--runs", "300", "--seed", "20260809"], "table.csv")
        assert a.read_bytes() == b.read_bytes()
        assert "# threads=" not in a.read_text() and "# out=" not in a.read_text()
        assert "# seeding_contract=2\n" in a.read_text()


class TestSchemeNamedByHash:
    """Headers name the scheme by its content hash, not by the path given."""

    @pytest.mark.parametrize("flags", [
        ["simulate", "--scheduler", "ud", "--runs", "200", "--seed", "5"],
        ["exact", "--scheduler", "ranked", "--rank", "harmonic"],
    ], ids=["simulate", "exact"])
    def test_copied_scheme_file_writes_same_bytes(self, tmp_path, pp2, flags):
        original = tmp_path / "pp2.json"
        write_scheme(pp2, original)
        (tmp_path / "copy").mkdir()
        copy = tmp_path / "copy" / "renamed.json"
        copy.write_bytes(original.read_bytes())
        outs = []
        for scheme in (original, copy):
            out = tmp_path / f"{scheme.stem}.out.json"
            assert main([flags[0], "--scheme", str(scheme)] + flags[1:] + ["--out", str(out)]) == 0
            outs.append(out)
        a, b = (out.read_bytes() for out in outs)
        assert a == b
        config = json.loads(a)["config"]
        assert "scheme" not in config and config["scheme_hash"] == scheme_hash(pp2)


class TestTimingsOnStderr:
    RATE = r"(\d+) runs in \d+\.\d{3} s \([\d,]+ runs/s\)"

    def test_simulate_reports_elapsed_and_rate(self, tmp_path, capsys, pp2):
        scheme = tmp_path / "pp2.json"
        write_scheme(pp2, scheme)
        out = tmp_path / "sim.json"
        assert main(["simulate", "--scheme", str(scheme), "--runs", "200", "--seed", "1",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(rf"simulate: {self.RATE}\n", err).group(1) == "200"
        assert "runs/s" not in out.read_text()
        assert "runs/s" not in out.with_suffix(".profile.csv").read_text()

    def test_ensemble_reports_elapsed_and_rate(self, tmp_path, capsys):
        argv = ["ensemble", "--kind", "mds", "--mode", "server", "--B", "6", "--V", "5",
                "--R", "2", "--samples", "70", "--seed", "2"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        rate = r"70 samples in \d+\.\d{3} s \([\d,]+ samples/s\)"
        assert re.fullmatch(rf"ensemble: {rate}\n", captured.err)
        out = tmp_path / "ens.csv"
        assert main(argv + ["--out", str(out)]) == 0
        captured_file = capsys.readouterr()
        assert re.fullmatch(rf"ensemble: {rate}\n", captured_file.err)
        assert captured_file.out == ""
        # stdout carries the CSV's bytes, and neither carries the timing
        assert captured.out == out.read_text()
        assert "samples/s" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["exact", "--scheduler", "ranked", "--rank", "harmonic"],
        ["mdp", "--compare-rank", "harmonic"],
    ], ids=["exact", "mdp"])
    def test_exact_solvers_report_states_and_rate(self, tmp_path, capsys, pp2, argv):
        scheme = tmp_path / "pp2.json"
        write_scheme(pp2, scheme)
        argv = argv[:1] + ["--scheme", str(scheme)] + argv[1:]
        rate = (rf"{argv[0]}: 128 states in \d+\.\d{{3}} s \([\d,]+ states/s\), "
                r"peak RSS \d+\.\d MiB")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(rf"{rate}\n", captured.err)
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        captured_file = capsys.readouterr()
        assert re.fullmatch(rf"{rate}\n", captured_file.err)
        assert captured_file.out == ""
        # stdout carries the JSON's bytes, and neither carries the timing
        assert captured.out == out.read_text()
        assert "states/s" not in captured.out

    @pytest.mark.parametrize("command", ["inspect", "bounds"])
    def test_overlap_commands_report_pairs_and_rate(self, tmp_path, capsys, command):
        scheme = tmp_path / "cyclic.json"
        write_scheme(cyclic_shift(12, 3), scheme)
        argv = [command, "--scheme", str(scheme)]
        # C(12,2) server pairs plus C(12,2) fragment pairs
        rate = rf"{command}: 132 pairs in \d+\.\d{{3}} s \([\d,]+ pairs/s\)"
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(rf"{rate}\n", captured.err)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        captured_file = capsys.readouterr()
        assert re.fullmatch(rf"{rate}\n", captured_file.err)
        assert captured_file.out == ""
        # stdout carries the artifact's bytes, and neither carries the timing
        assert captured.out == out.read_text()
        assert "pairs/s" not in captured.out

    def test_reproduce_reports_each_row(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        main(["reproduce", "table-download-times", "--runs", "100", "--seed", "20260809",
              "--out", str(out)])
        captured = capsys.readouterr()
        rows = re.findall(rf"^(\S+): {self.RATE}$", captured.err, flags=re.M)
        assert [(row, runs) for row, runs in rows] == [(r, "100") for r in ACCEPTANCE_ROWS]
        assert "runs/s" not in captured.out
        assert "runs/s" not in out.read_text()
