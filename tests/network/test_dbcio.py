"""DBC text format: rendering, parsing and full round-trips."""

import pytest

from repro.network import MessageDefinition, SignalDefinition
from repro.network.dbcio import (
    DbcError,
    dump_database,
    dumps_database,
    load_database,
    loads_database,
)
from repro.protocols import SignalEncoding
from repro.protocols.signalcodec import MOTOROLA


class TestDump:
    def test_contains_message_and_signal_lines(self, wiper_database):
        text = dumps_database(wiper_database)
        assert "BO_ 3 WIPER_STATUS: 4 ECU" in text
        assert 'SG_ wpos : 0|16@1+ (0.5,0) [0|32767.5] "deg"' in text

    def test_cycle_time_attribute_in_ms(self, wiper_database):
        text = dumps_database(wiper_database)
        assert 'BA_ "GenMsgCycleTime" BO_ 3 100;' in text

    def test_channel_and_protocol_attributes(self, wiper_database):
        text = dumps_database(wiper_database)
        assert 'BA_ "BusChannel" BO_ 17 "K-LIN";' in text
        assert 'BA_ "BusProtocol" BO_ 17 "LIN";' in text

    def test_value_table_line(self, wiper_database):
        text = dumps_database(wiper_database)
        assert 'VAL_ 17 heat 0 "off" 1 "low" 2 "medium" 3 "high"' in text

    def test_data_class_markers_in_comments(self, wiper_database):
        text = dumps_database(wiper_database)
        assert 'CM_ SG_ 17 heat "[ordinal]";' in text

    def test_conditional_layout_round_trips(self):
        from repro.network.database import NetworkDatabase
        from repro.protocols.someip import ConditionalLayout, OptionalSection

        layout = ConditionalLayout(
            (OptionalSection(0, 1), OptionalSection(3, 2))
        )
        msg = MessageDefinition(
            "S", 1, "ETH", "SOMEIP", 4,
            (SignalDefinition("x", SignalEncoding(0, 8), section_bit=0),),
            layout=layout,
        )
        text = dumps_database(NetworkDatabase((msg,)))
        assert 'BA_ "SectionLayout" BO_ 1 "0:1,3:2";' in text
        assert 'CM_ SG_ 1 x "[numeric][section0]";' in text
        clone = loads_database(text).message("ETH", 1)
        assert clone.layout == layout
        assert clone.signal("x").section_bit == 0

    def test_malformed_section_layout_rejected(self):
        from repro.network.database import NetworkDatabase
        from repro.protocols.someip import ConditionalLayout, OptionalSection

        layout = ConditionalLayout((OptionalSection(0, 1),))
        msg = MessageDefinition(
            "S", 1, "ETH", "SOMEIP", 2,
            (SignalDefinition("x", SignalEncoding(0, 8), section_bit=0),),
            layout=layout,
        )
        text = dumps_database(NetworkDatabase((msg,)))
        with pytest.raises(DbcError):
            loads_database(text.replace('"0:1"', '"0:1,bogus"'))


class TestRoundTrip:
    def test_full_database_round_trip(self, wiper_database):
        loaded = loads_database(dumps_database(wiper_database))
        assert len(loaded) == len(wiper_database)
        for original in wiper_database.messages:
            clone = loaded.message(original.channel, original.message_id)
            assert clone.name == original.name
            assert clone.payload_length == original.payload_length
            assert clone.cycle_time == original.cycle_time
            assert clone.protocol == original.protocol
            for s in original.signals:
                c = clone.signal(s.name)
                assert c.encoding == s.encoding
                assert c.unit == s.unit
                assert c.data_class == s.data_class
                assert c.kind == s.kind

    def test_payload_codec_equivalence_after_round_trip(self, wiper_database):
        loaded = loads_database(dumps_database(wiper_database))
        original = wiper_database.message("FC", 3)
        clone = loaded.message("FC", 3)
        payload = original.encode({"wpos": 45.0, "wvel": 7})
        assert clone.decode(payload) == original.decode(payload)

    def test_file_round_trip(self, wiper_database, tmp_path):
        path = tmp_path / "vehicle.dbc"
        dump_database(wiper_database, path)
        loaded = load_database(path)
        assert set(m.name for m in loaded) == set(
            m.name for m in wiper_database
        )

    def test_dataset_databases_round_trip_per_channel(self):
        """Real deployments keep one DBC per bus; ids repeat across
        buses, so the SYN database exports channel by channel."""
        from repro.datasets import build_syn

        database = build_syn().database
        total = 0
        for channel in database.channels():
            loaded = loads_database(
                dumps_database(database, channels=[channel])
            )
            total += len(loaded)
            for message in loaded:
                original = database.message(channel, message.message_id)
                assert message.signal_names() == original.signal_names()
        assert total == len(database)

    def test_duplicate_ids_across_channels_rejected(self):
        from repro.datasets import build_syn

        database = build_syn().database
        with pytest.raises(DbcError):
            dumps_database(database)

    def test_signed_motorola_round_trip(self):
        from repro.network.database import NetworkDatabase

        sig = SignalDefinition(
            "torque",
            SignalEncoding(
                7, 12, byte_order=MOTOROLA, signed=True, scale=0.25, offset=-10
            ),
            unit="Nm",
        )
        msg = MessageDefinition("TORQUE", 0x99, "PT", "CAN", 2, (sig,), 0.02)
        loaded = loads_database(dumps_database(NetworkDatabase((msg,))))
        clone = loaded.message("PT", 0x99).signal("torque")
        assert clone.encoding == sig.encoding


class TestParsing:
    MINIMAL = "\n".join(
        [
            'VERSION "x"',
            "BU_: ECU",
            "BO_ 5 SPEED: 2 ECU",
            ' SG_ speed : 0|16@1+ (0.1,0) [0|6553.5] "km/h" Vector__XXX',
        ]
    )

    def test_minimal_message(self):
        db = loads_database(self.MINIMAL)
        msg = db.message("CAN1", 5)  # default channel
        assert msg.signal("speed").encoding.scale == 0.1
        assert msg.cycle_time is None

    def test_unknown_statements_tolerated(self):
        db = loads_database(
            self.MINIMAL + "\nSIG_VALTYPE_ 5 speed : 1;\nCM_ BO_ 5 \"x\";"
        )
        assert len(db) == 1

    def test_sg_outside_bo_rejected(self):
        with pytest.raises(DbcError):
            loads_database(
                ' SG_ s : 0|8@1+ (1,0) [0|255] "" Vector__XXX'
            )

    @pytest.mark.parametrize(
        "mapping, what",
        [("(nan,0)", "scale"), ("(inf,0)", "scale"), ("(1,-inf)", "offset"),
         ("(1,NaN)", "offset"), ("(fast,0)", "scale")],
    )
    def test_non_finite_scaling_rejected_with_its_line(self, mapping, what):
        text = self.MINIMAL.replace("(0.1,0)", mapping)
        with pytest.raises(
            DbcError, match="SG_ {} .* on line 4".format(what)
        ):
            loads_database(text)

    def test_val_for_unknown_message_rejected(self):
        with pytest.raises(DbcError):
            loads_database('VAL_ 9 s 0 "a" ;')

    def test_ba_for_unknown_message_rejected(self):
        with pytest.raises(DbcError):
            loads_database('BA_ "GenMsgCycleTime" BO_ 9 100;')

    def test_default_data_class_from_value_table(self):
        text = self.MINIMAL + '\nVAL_ 5 speed 0 "a" 1 "b" ;'
        db = loads_database(text)
        assert db.message("CAN1", 5).signal("speed").data_class == "binary"

    def test_validity_marker_parsed(self):
        text = self.MINIMAL + '\nCM_ SG_ 5 speed "[numeric][validity] qa";'
        db = loads_database(text)
        signal = db.message("CAN1", 5).signal("speed")
        assert signal.kind == "validity"
        assert signal.comment == "qa"

    def test_repeated_message_id_rejected_naming_both_lines(self):
        text = self.MINIMAL + "\nBO_ 5 SPEED_COPY: 1 ECU"
        with pytest.raises(DbcError, match="BO_ 5 on line 5 .* of line 3"):
            loads_database(text)

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5", "1e3"])
    def test_bad_cycle_time_rejected_with_its_line(self, value):
        text = self.MINIMAL + '\nBA_ "GenMsgCycleTime" BO_ 5 {};'.format(
            value
        )
        with pytest.raises(
            DbcError, match="GenMsgCycleTime '{}' on line 5".format(value)
        ):
            loads_database(text)

    def test_zero_cycle_time_means_none(self):
        text = self.MINIMAL + '\nBA_ "GenMsgCycleTime" BO_ 5 0;'
        assert loads_database(text).message("CAN1", 5).cycle_time is None
